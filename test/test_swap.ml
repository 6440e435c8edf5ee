(* The greedy swap pass: [Swap.improve] prices each candidate by the
   delta it makes to the per-cluster occupancy rows, and must pick the
   same swaps in the same order as the whole-recompute oracle
   [Swap_reference] — same placements, same stats — at every cluster
   count, including the k >= 3 [Shared] classes. *)

open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched
open Ncdrf_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let clusters sched =
  Array.map (fun p -> p.Schedule.cluster) sched.Schedule.placements

let same_result (s1, (st1 : Swap.stats)) (s2, (st2 : Swap.stats)) =
  s1.Schedule.placements = s2.Schedule.placements && st1 = st2

(* ------------------------------------------------------------------ *)
(* The pair set of a bucket changes under swapping.                   *)
(* ------------------------------------------------------------------ *)

(* Adds a, b, c share one kernel slot, a on cluster 0 and b, c on
   cluster 1; muls d, e share another bucket.  Each op reads one load
   and its value has no consumer.  Every value is live in all slots
   (II = 1), so a cluster's MaxLive is the sum of its values' lengths:
   the operands of a..e live 4, 13, 12, 5 and 13 cycles.  The greedy
   pass swaps (a,b) (47 -> 38), then (d,e) (-> 32), then (b,c) (-> 31).
   (b,c) is not a candidate of the first pass: a pass that kept the
   first pass's pairs, (a,b) and (a,c), would stop at 32. *)
let three_op_bucket () =
  let b = Ddg.Builder.create ~name:"bucket3" in
  let load i =
    Ddg.Builder.add_node b (Opcode.Load (Opcode.Array (string_of_int i)))
      ~label:(Printf.sprintf "L%d" i)
  in
  let loads = List.init 5 load in
  let ops =
    List.map2
      (fun op label -> Ddg.Builder.add_node b op ~label)
      [ Opcode.Fadd; Fadd; Fadd; Fmul; Fmul ]
      [ "a"; "b"; "c"; "d"; "e" ]
  in
  List.iter2
    (fun src dst -> Ddg.Builder.add_edge b ~src ~dst ~distance:0 Ddg.Flow)
    loads ops;
  let ddg = Ddg.Builder.freeze b in
  let config =
    Config.make ~name:"bucket3"
      ~clusters:
        (Array.make 2 (Config.symmetric_cluster ~adders:2 ~multipliers:2 ~ls_units:5 ()))
      ~add_latency:3 ~mul_latency:3 ()
  in
  let load_cycles = [| 9; 0; 1; 8; 0 |] and op_clusters = [| 0; 1; 1; 0; 1 |] in
  let placements =
    Array.init 10 (fun v ->
        if v < 5 then { Schedule.cycle = load_cycles.(v); cluster = 0 }
        else { Schedule.cycle = 10; cluster = op_clusters.(v - 5) })
  in
  Schedule.make ~config ~ii:1 ~placements ddg

let test_pair_set_follows_swaps () =
  let sched = three_op_bucket () in
  Helpers.check_valid "hand-built schedule" sched;
  let a = 5 and b = 6 and c = 7 and d = 8 and e = 9 in
  Alcotest.(check (list (pair int int)))
    "first pass" [ (a, b); (a, c); (d, e) ] (Swap.candidates sched);
  Alcotest.(check (list (pair int int)))
    "after swapping a and b" [ (a, b); (b, c); (d, e) ]
    (Swap.candidates (Schedule.swap_clusters sched a b));
  let swapped, stats = Swap.improve sched in
  check_int "initial cost" 47 stats.Swap.initial_cost;
  check_int "three swaps" 3 stats.Swap.swaps;
  check_int "final cost" 31 stats.Swap.final_cost;
  Alcotest.(check (array int))
    "final clusters" [| 0; 0; 0; 0; 0; 1; 1; 0; 1; 0 |] (clusters swapped);
  check_bool "same as the oracle" true
    (same_result (swapped, stats) (Swap_reference.improve sched))

(* ------------------------------------------------------------------ *)
(* Equivalence with the whole-recompute oracle.                       *)
(* ------------------------------------------------------------------ *)

let case_arb =
  QCheck.make
    ~print:(fun (seed, k, latency, heavy) ->
      Printf.sprintf "seed=%d k=%d latency=%d heavy=%b" seed k latency heavy)
    QCheck.Gen.(quad (int_bound 20_000) (oneofl [ 2; 3; 4 ]) (oneofl [ 3; 6 ]) bool)

let schedule_of (seed, k, latency, heavy) =
  let params =
    if heavy then Ncdrf_workloads.Generator.heavy else Ncdrf_workloads.Generator.default
  in
  let g = Ncdrf_workloads.Generator.generate params ~seed ~name:"swap-eq" in
  Modulo.schedule (Config.k_cluster ~k ~latency ()) g

let prop_matches_reference =
  QCheck.Test.make ~count:120 ~name:"improve = Swap_reference.improve (MaxLive)" case_arb
    (fun case ->
      let sched = schedule_of case in
      same_result (Swap.improve sched) (Swap_reference.improve sched))

let prop_exact_matches_reference =
  QCheck.Test.make ~count:12 ~name:"improve = Swap_reference.improve (Exact)" case_arb
    (fun (seed, k, latency, _) ->
      let sched = schedule_of (seed, k, latency, false) in
      same_result
        (Swap.improve ~estimate:Swap.Exact sched)
        (Swap_reference.improve ~estimate:Swap.Exact sched))

(* Stopping after [p] passes returns the schedule after the [p]-th
   accepted swap with the incrementally kept cost: it must equal the
   whole-schedule MaxLive every time. *)
let prop_cost_after_every_swap =
  QCheck.Test.make ~count:60 ~name:"incremental cost = max_live_cost after every swap"
    case_arb (fun case ->
      let sched = schedule_of case in
      let _, total = Swap.improve sched in
      List.for_all
        (fun p ->
          let swapped, st = Swap.improve ~max_passes:p sched in
          st.Swap.swaps = p
          && st.Swap.initial_cost = Requirements.max_live_cost sched
          && st.Swap.final_cost = Requirements.max_live_cost swapped)
        (List.init (total.Swap.swaps + 1) Fun.id))

let has_shared sched =
  List.exists
    (fun (_, cls) -> match cls with Classify.Shared _ -> true | _ -> false)
    (Classify.classify sched)

(* The suite's loops at k = 3 and 4, where values consumed on a proper
   subset of the clusters are [Shared]: the oracle must agree on every
   loop, and the slice must actually exercise that class. *)
let test_shared_classes_match_reference () =
  let shared = ref 0 in
  List.iter
    (fun (e : Ncdrf_workloads.Suite.entry) ->
      List.iter
        (fun k ->
          let sched = Modulo.schedule (Config.k_cluster ~k ~latency:3 ()) e.ddg in
          let ((swapped, _) as got) = Swap.improve sched in
          if has_shared sched || has_shared swapped then incr shared;
          if not (same_result got (Swap_reference.improve sched)) then
            Alcotest.failf "%s at k=%d: swap pass diverged from the oracle"
              (Ddg.name e.ddg) k)
        [ 3; 4 ])
    (Ncdrf_workloads.Suite.full ~size:40 ~seed:7 ());
  check_bool "the slice reaches Shared classes" true (!shared >= 10)

(* The swapped placements and stats over a 40-loop slice at k = 2, 3
   and 4, pinned to the output of the whole-recompute pass.  Any change
   to which swaps the pass takes moves the hash. *)
let test_fixed_seed_digest () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (e : Ncdrf_workloads.Suite.entry) ->
      List.iter
        (fun (k, latency) ->
          let sched = Modulo.schedule (Config.k_cluster ~k ~latency ()) e.ddg in
          let swapped, st = Swap.improve sched in
          Printf.bprintf buf "%s k=%d L=%d swaps=%d %d->%d:" (Ddg.name e.ddg) k latency
            st.Swap.swaps st.Swap.initial_cost st.Swap.final_cost;
          Array.iter (Printf.bprintf buf " %d") (clusters swapped);
          Buffer.add_char buf '\n')
        [ (2, 3); (2, 6); (3, 3); (4, 6) ])
    (Ncdrf_workloads.Suite.full ~size:40 ~seed:2025 ());
  Alcotest.(check string)
    "swap fixed-seed digest" "1a7dd9a916e442d8f78415d11adbc124"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let suite =
  [
    Alcotest.test_case "pair set follows each swap" `Quick test_pair_set_follows_swaps;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    QCheck_alcotest.to_alcotest prop_exact_matches_reference;
    QCheck_alcotest.to_alcotest prop_cost_after_every_swap;
    Alcotest.test_case "k >= 3 Shared classes match the oracle" `Quick
      test_shared_classes_match_reference;
    Alcotest.test_case "fixed-seed digest" `Quick test_fixed_seed_digest;
  ]
