let mtu = 1500
let ethernet = 18
let vlan_tag = 4
let ipv4 = 20
let tcp = 20
let udp = 8
let gre = 8
let vxlan = udp + 8

let max_tcp_payload = mtu - ipv4 - tcp
let frames ~payload =
  Stdlib.max 1 ((payload + max_tcp_payload - 1) / max_tcp_payload)
