let table1a =
  [ ("VIF", 106574.0, 373.0, 3.3); ("SR-IOV VF", 215288.0, 192.0, 3.2) ]

let table1b =
  [ ("VIF", 96093.0, 414.0, 4.1); ("SR-IOV VF", 177559.0, 231.0, 4.1) ]

let table2 =
  [
    ("100% VIF", 86.6, 23089.0, 331.0, 3.5);
    ("75% VIF", 82.2, 24333.0, 306.0, 3.2);
    ("50% VIF", 82.3, 24335.0, 297.0, 3.2);
    ("25% VIF", 82.1, 23976.0, 275.0, 2.9);
    ("0% VIF", 54.9, 37456.0, 190.0, 2.2);
  ]

let table3 =
  [
    ("VIF", 118.4, 16896.2, 455.6, 7.6);
    ("SR-IOV VF", 69.0, 29334.6, 249.0, 6.3);
  ]

let table4 =
  [
    ("VIF only", 110.9, 18044.2, 440.2, 7.6);
    ("VIF(10s)+SR-IOV", 57.34, 35339.8, 225.6, 6.0);
  ]

let print_4col title header rows =
  Tabular.print_title title;
  Tabular.print_header header;
  List.iter
    (fun (label, a, b, c) ->
      Tabular.print_row
        [ label; Tabular.cell_f ~decimals:1 a; Tabular.cell_f ~decimals:1 b;
          Tabular.cell_f ~decimals:1 c ])
    rows

let print_5col title header rows =
  Tabular.print_title title;
  Tabular.print_header header;
  List.iter
    (fun (label, a, b, c, d) ->
      Tabular.print_row
        [ label; Tabular.cell_f ~decimals:1 a; Tabular.cell_f ~decimals:1 b;
          Tabular.cell_f ~decimals:1 c; Tabular.cell_f ~decimals:1 d ])
    rows

let print_table1 () =
  print_4col "Paper Table 1(a): memcached TPS"
    [ "interface"; "TPS"; "latency(us)"; "CPUs" ]
    table1a;
  print_4col "Paper Table 1(b): w/ background"
    [ "interface"; "TPS"; "latency(us)"; "CPUs" ]
    table1b

let print_table2 () =
  print_5col "Paper Table 2: finish times vs %VIF"
    [ "case"; "finish(s)"; "TPS"; "latency(us)"; "CPUs" ]
    table2

let print_table3 () =
  print_5col "Paper Table 3: finish times w/ background"
    [ "case"; "finish(s)"; "TPS"; "latency(us)"; "CPUs" ]
    table3

let print_table4 () =
  print_5col "Paper Table 4: FasTrak migration"
    [ "case"; "finish(s)"; "TPS"; "latency(us)"; "CPUs" ]
    table4
