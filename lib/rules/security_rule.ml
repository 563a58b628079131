type action = Allow | Deny

type t = {
  pattern : Netcore.Fkey.Pattern.t;
  action : action;
  priority : int;
}

let make ?priority pattern action =
  let priority =
    match priority with
    | Some p -> p
    | None -> Netcore.Fkey.Pattern.specificity pattern
  in
  { pattern; action; priority }

let allow_all tenant =
  make ~priority:0 { Netcore.Fkey.Pattern.any with tenant = Some tenant } Allow

let deny_all tenant =
  make ~priority:(-1) { Netcore.Fkey.Pattern.any with tenant = Some tenant } Deny

let matches t key = Netcore.Fkey.Pattern.matches t.pattern key
