module Fkey = Netcore.Fkey
module Ptbl = Netcore.Fkey.Pattern.Table

type candidate = {
  pattern : Fkey.Pattern.t;
  tenant : Netcore.Tenant.id;
  vm_ip : Netcore.Ipv4.t;
  score : float;
  tcam_entries : int;
}

type decision = {
  offload : candidate list;
  demote : candidate list;
  keep : candidate list;
}

let m_calls = Obs.Metrics.counter "fastrak.decide.calls"
let m_offloads = Obs.Metrics.counter "fastrak.decide.offloads"
let m_demotes = Obs.Metrics.counter "fastrak.decide.demotes"

(* Pooled scratch state for [decide]. All per-call working storage —
   the eligible-candidate array, its rank order, and the two pattern
   membership tables — lives here and is reused across calls, so a
   steady-state decide call allocates only its output lists (plus
   hashtable bucket cells), not O(c log c) of sort-and-cons garbage.
   Owned by the controller that calls decide. *)
type scratch = {
  mutable elig : candidate array;  (* eligible candidates, arrival order *)
  mutable e_len : int;
  mutable order : int array;  (* [elig] indices, heap-sorted by rank *)
  offloaded_tbl : candidate Ptbl.t;
  selected_tbl : unit Ptbl.t;
}

let dummy_candidate =
  {
    pattern = Fkey.Pattern.any;
    tenant = Netcore.Tenant.of_int 0;
    vm_ip = Netcore.Ipv4.of_int32 0l;
    score = 0.0;
    tcam_entries = 0;
  }

let create_scratch () =
  {
    elig = Array.make 64 dummy_candidate;
    e_len = 0;
    order = Array.make 64 0;
    offloaded_tbl = Ptbl.create 64;
    selected_tbl = Ptbl.create 64;
  }

let push_elig s c =
  let e = s.e_len in
  (if e = Array.length s.elig then begin
     s.elig <- Array.append s.elig (Array.make e dummy_candidate);
     s.order <- Array.append s.order (Array.make e 0)
   end);
  s.elig.(e) <- c;
  s.order.(e) <- e;
  s.e_len <- e + 1

(* Rank order: descending score, equal scores by ascending pattern.
   A total order on the candidate, so no decision depends on the order
   the caller's tables happened to list candidates in. *)
let rank a b =
  match Float.compare b.score a.score with
  | 0 -> Fkey.Pattern.compare a.pattern b.pattern
  | c -> c

(* In-place heapsort of [s.order]'s first [n] slots by [rank], the
   rest of a tie by ascending index (= arrival order), i.e. exactly the
   [List.stable_sort] order of the list baseline — without allocating
   the sorted list. *)
let sort_order s n =
  let ord = s.order and elig = s.elig in
  (* [gt a b]: candidate [a] sorts strictly after candidate [b]. *)
  let gt a b =
    let c = rank elig.(a) elig.(b) in
    c > 0 || (c = 0 && a > b)
  in
  let sift_down start len =
    let root = ref start in
    let continue_ = ref true in
    while !continue_ do
      let child = (2 * !root) + 1 in
      if child >= len then continue_ := false
      else begin
        let child =
          if child + 1 < len && gt ord.(child + 1) ord.(child) then child + 1
          else child
        in
        if gt ord.(child) ord.(!root) then begin
          let tmp = ord.(!root) in
          ord.(!root) <- ord.(child);
          ord.(child) <- tmp;
          root := child
        end
        else continue_ := false
      end
    done
  in
  for i = (n / 2) - 1 downto 0 do
    sift_down i n
  done;
  for i = n - 1 downto 1 do
    let tmp = ord.(0) in
    ord.(0) <- ord.(i);
    ord.(i) <- tmp;
    sift_down 0 i
  done

let decide ?scratch ~candidates ~offloaded ~tcam_free ~min_score () =
  Obs.Metrics.incr m_calls;
  let s = match scratch with Some s -> s | None -> create_scratch () in
  Ptbl.clear s.offloaded_tbl;
  Ptbl.clear s.selected_tbl;
  s.e_len <- 0;
  (* One walk over [offloaded] funds the budget and fills the
     membership table; every later "currently in hardware?" question is
     an O(1) lookup instead of a list scan per candidate. Total budget:
     free entries plus everything currently offloaded, since
     non-winners are demoted and return their entries. *)
  let budget = ref tcam_free in
  List.iter
    (fun (p, c) ->
      Ptbl.replace s.offloaded_tbl p c;
      budget := !budget + c.tcam_entries)
    offloaded;
  List.iter (fun c -> if c.score >= min_score then push_elig s c) candidates;
  sort_order s s.e_len;
  (* Greedy selection over the rank order. Prepending leaves both
     lists lowest-ranked first, the list baseline's output order. *)
  let offload = ref [] in
  let keep = ref [] in
  let n_offload = ref 0 in
  for k = 0 to s.e_len - 1 do
    let c = s.elig.(s.order.(k)) in
    if c.tcam_entries <= !budget then begin
      budget := !budget - c.tcam_entries;
      Ptbl.replace s.selected_tbl c.pattern ();
      if Ptbl.mem s.offloaded_tbl c.pattern then keep := c :: !keep
      else begin
        incr n_offload;
        offload := c :: !offload
      end
    end
  done;
  let demote =
    List.filter_map
      (fun (p, c) -> if Ptbl.mem s.selected_tbl p then None else Some c)
      offloaded
  in
  Obs.Metrics.add m_offloads !n_offload;
  Obs.Metrics.add m_demotes (List.length demote);
  { offload = !offload; demote; keep = !keep }

let decide_list_baseline ~candidates ~offloaded ~tcam_free ~min_score () =
  let budget =
    tcam_free + List.fold_left (fun s (_, c) -> s + c.tcam_entries) 0 offloaded
  in
  let ranked =
    List.stable_sort rank (List.filter (fun c -> c.score >= min_score) candidates)
  in
  let selected, _ =
    List.fold_left
      (fun (acc, budget_left) c ->
        if c.tcam_entries <= budget_left then
          (c :: acc, budget_left - c.tcam_entries)
        else (acc, budget_left))
      ([], budget) ranked
  in
  let is_offloaded c =
    List.exists (fun (p, _) -> Fkey.Pattern.equal p c.pattern) offloaded
  in
  let selected_pattern p =
    List.exists (fun c -> Fkey.Pattern.equal c.pattern p) selected
  in
  let offload = List.filter (fun c -> not (is_offloaded c)) selected in
  let keep = List.filter is_offloaded selected in
  let demote =
    List.filter_map
      (fun (p, c) -> if selected_pattern p then None else Some c)
      offloaded
  in
  { offload; demote; keep }
