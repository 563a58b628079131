type endpoint = { server_ip : Netcore.Ipv4.t; tor_ip : Netcore.Ipv4.t }

type t = {
  tenant : Netcore.Tenant.id;
  vm_ip : Netcore.Ipv4.t;
  endpoint : endpoint;
}

let make ~tenant ~vm_ip endpoint = { tenant; vm_ip; endpoint }

module Map = struct
  type rule = t
  type t = (int * int, endpoint) Hashtbl.t

  let key ~tenant ~vm_ip =
    ((tenant : Netcore.Tenant.id :> int), (vm_ip : Netcore.Ipv4.t :> int))

  let create () : t = Hashtbl.create 64

  let install t (r : rule) =
    Hashtbl.replace t (key ~tenant:r.tenant ~vm_ip:r.vm_ip) r.endpoint

  let remove t ~tenant ~vm_ip = Hashtbl.remove t (key ~tenant ~vm_ip)
  let lookup t ~tenant ~vm_ip = Hashtbl.find_opt t (key ~tenant ~vm_ip)
  let size t = Hashtbl.length t
end
