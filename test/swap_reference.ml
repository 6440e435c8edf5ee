(* The whole-recompute greedy swap pass, kept as the behavioural oracle
   for [Swap.improve]: every candidate is priced by copying the
   placements and recomputing the estimate over the whole schedule.
   [Swap.improve] scores candidates by their delta instead and must
   return the same schedule and the same stats (test/test_swap.ml pins
   the equivalence).  Do not optimize this file: its value is being the
   simplest statement of the greedy rule. *)

open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched
open Ncdrf_core

type estimate = Swap.estimate =
  | Max_live
  | Exact

type stats = Swap.stats = {
  swaps : int;
  initial_cost : int;
  final_cost : int;
}

let candidates sched =
  (* Candidates are pairs with the same functional-unit class and the
     same kernel slot (cycle congruent modulo II) on different
     clusters.  Bucket the nodes by [(fu_class, cycle mod ii)] and pair
     within buckets: same candidate set as the all-pairs scan, without
     the quadratic blowup on heavy generated loops where most pairs
     fail the class/slot test.  Emission order stays the all-pairs
     order (ascending node position) so the greedy pass breaks ties
     identically. *)
  let ddg = sched.Schedule.ddg in
  let ii = Schedule.ii sched in
  let slot cycle = ((cycle mod ii) + ii) mod ii in
  let buckets : (Opcode.fu_class * int, int list) Hashtbl.t = Hashtbl.create 16 in
  let pairs = ref [] in
  List.iter
    (fun b ->
      let key = (Opcode.fu_class b.Ddg.opcode, slot (Schedule.cycle sched b.Ddg.id)) in
      let earlier = Option.value ~default:[] (Hashtbl.find_opt buckets key) in
      (* [earlier] holds ids of prior same-bucket nodes, most recent
         first; collect (i, j) pairs and restore ascending order at the
         end with one sort over the (much smaller) candidate list. *)
      List.iter
        (fun a_id ->
          if Schedule.cluster sched a_id <> Schedule.cluster sched b.Ddg.id then
            pairs := (a_id, b.Ddg.id) :: !pairs)
        earlier;
      Hashtbl.replace buckets key (b.Ddg.id :: earlier))
    (Ddg.nodes ddg);
  List.sort
    (fun (a1, b1) (a2, b2) ->
      let c = Int.compare a1 a2 in
      if c <> 0 then c else Int.compare b1 b2)
    !pairs

let cost ~estimate sched =
  match estimate with
  | Max_live -> Requirements.max_live_cost sched
  | Exact -> (Requirements.partitioned sched).Requirements.requirement

let improve ?(estimate = Max_live) ?(max_passes = 1000) sched =
  if Config.num_clusters sched.Schedule.config < 2 then
    (sched, { swaps = 0; initial_cost = cost ~estimate sched; final_cost = cost ~estimate sched })
  else begin
    let initial_cost = cost ~estimate sched in
    let rec loop sched current swaps passes =
      if passes >= max_passes then (sched, current, swaps)
      else begin
        (* Recompute the candidates every pass: a swap keeps every
           node's class and slot, but changes which pairs of a bucket
           sit on different clusters. *)
        let best =
          List.fold_left
            (fun acc (a, b) ->
              let swapped = Schedule.swap_clusters sched a b in
              let c = cost ~estimate swapped in
              match acc with
              | Some (_, best_cost) when best_cost <= c -> acc
              | Some _ | None -> if c < current then Some (swapped, c) else acc)
            None (candidates sched)
        in
        match best with
        | Some (swapped, c) -> loop swapped c (swaps + 1) (passes + 1)
        | None -> (sched, current, swaps)
      end
    in
    let sched, final_cost, swaps = loop sched initial_cost 0 0 in
    (sched, { swaps; initial_cost; final_cost })
  end
