(* Tests of the benchmark's own arithmetic. *)

open Perfbench_stats

let span ?(parent = 0) ?(domain = 0) id name t0 t1 =
  { Stats.id; parent; name; key = ""; domain; t0; t1 }

let close = Alcotest.float 1e-9

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "p50 of 1..100" 50.0 (Stats.percentile xs 50.0);
  Alcotest.check close "p99 of 1..100" 99.0 (Stats.percentile xs 99.0);
  Alcotest.check close "p100" 100.0 (Stats.percentile xs 100.0);
  Alcotest.check close "unsorted input" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ])

(* A tail is the highest percentile with at least ten samples beyond it. *)
let test_tail_rule () =
  let xs n = List.init n (fun i -> float_of_int i) in
  Alcotest.(check int) "1000 samples leave 10 beyond p99" 10 (Stats.beyond ~n:1000 99.0);
  Alcotest.(check (float 0.0)) "p99 kept at 1000" 99.0 (fst (Stats.tail (xs 1000) ~want:99.0));
  Alcotest.(check (float 0.0)) "999 samples fall to p95" 95.0 (fst (Stats.tail (xs 999) ~want:99.0));
  Alcotest.(check (float 0.0)) "100 samples: p90" 90.0 (fst (Stats.tail (xs 100) ~want:99.0));
  Alcotest.(check (float 0.0)) "p90 wanted at 100" 90.0 (fst (Stats.tail (xs 100) ~want:90.0));
  Alcotest.(check (float 0.0)) "60 samples: p75" 75.0 (fst (Stats.tail (xs 60) ~want:90.0));
  Alcotest.(check (float 0.0)) "too few: median" 50.0 (fst (Stats.tail (xs 12) ~want:90.0));
  Alcotest.check close "tail value is that percentile" 89.0 (snd (Stats.tail (xs 100) ~want:90.0))

let self_of name spans =
  List.assoc name (Stats.self_by_name spans)

let test_self_nested () =
  (* pass [0, 10] > stage [1, 4] > inner [2, 3]; stage [5, 6]. *)
  let spans =
    [ span 1 "pass" 0.0 10.0; span ~parent:1 2 "stage" 1.0 4.0; span ~parent:2 3 "inner" 2.0 3.0;
      span ~parent:1 4 "stage" 5.0 6.0 ]
  in
  Alcotest.check close "pass minus its two children" 6.0 (self_of "pass" spans);
  Alcotest.check close "stage minus inner, summed" 3.0 (self_of "stage" spans);
  Alcotest.check close "leaf keeps its duration" 1.0 (self_of "inner" spans)

let test_self_parallel () =
  (* A map [0, 10] whose jobs ran on two domains: [0, 6] and [1, 4]
     overlap, [8, 9] stands alone.  Their union (7) is subtracted once,
     never their sum (10). *)
  let spans =
    [ span 1 "map" 0.0 10.0; span ~parent:1 ~domain:0 2 "job" 0.0 6.0;
      span ~parent:1 ~domain:1 3 "job" 1.0 4.0; span ~parent:1 ~domain:1 4 "job" 8.0 9.0 ]
  in
  Alcotest.check close "map self is the uncovered part" 3.0 (self_of "map" spans);
  Alcotest.check close "a child outside its parent is clipped" 1.0
    (snd (List.hd (Stats.self_times [ span 1 "a" 0.0 2.0; span ~parent:1 2 "b" 1.0 5.0 ])))

let test_pool_occupancy () =
  let map = span 1 "map" 0.0 10.0 in
  let jobs =
    [ span ~parent:1 ~domain:0 2 "job" 0.0 6.0; span ~parent:1 ~domain:1 3 "job" 0.0 9.0 ]
  in
  let busy, tail = Stats.pool_occupancy ~jobs:2 ~map jobs in
  Alcotest.check close "busy = 15 / (2 x 10)" 0.75 busy;
  Alcotest.check close "first executor idle at 6" 4.0 tail;
  let _, idle_tail = Stats.pool_occupancy ~jobs:2 ~map [ span ~parent:1 2 "job" 0.0 5.0 ] in
  Alcotest.check close "an executor with no job idles from the start" 10.0 idle_tail

let test_ratio_base () =
  let r = Stats.ratio ~num:3.0 ~base:4.0 in
  Alcotest.check close "value" 0.75 r.Stats.value;
  Alcotest.check close "base kept" 4.0 r.Stats.base;
  Alcotest.(check string) "printed with its base" "0.75 (3 / 4)" (Stats.pp_ratio r);
  Alcotest.check close "empty base" 0.0 (Stats.ratio ~num:0.0 ~base:0.0).Stats.value

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "tail needs ten samples beyond" `Quick test_tail_rule;
          Alcotest.test_case "self time of nested spans" `Quick test_self_nested;
          Alcotest.test_case "self time of parallel spans" `Quick test_self_parallel;
          Alcotest.test_case "pool occupancy" `Quick test_pool_occupancy;
          Alcotest.test_case "ratios carry their base" `Quick test_ratio_base;
        ] );
    ]
