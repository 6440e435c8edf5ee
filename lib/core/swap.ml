open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched
open Ncdrf_regalloc

type estimate =
  | Max_live
  | Exact

type stats = {
  swaps : int;
  initial_cost : int;
  final_cost : int;
}

(* Candidates are pairs with the same functional-unit class and the same
   kernel slot (cycle congruent modulo II) on different clusters.  A
   swap moves clusters, never cycles or opcodes, so the buckets by
   [(fu_class, slot)] are fixed for a whole greedy pass; which pairs of
   a bucket cross clusters is not (with [a] on cluster 0 and [b], [c] on
   cluster 1 the pairs are (a,b) and (a,c); after swapping a and b they
   are (a,b) and (b,c)), so that test is made against the current
   schedule every time.  [bucket.(v)] is v's bucket in ascending id
   order and [pos.(v)] v's index in it. *)
type buckets = {
  bucket : int array array;
  pos : int array;
}

let buckets sched =
  let ddg = sched.Schedule.ddg in
  let ii = Schedule.ii sched in
  let n = Ddg.num_nodes ddg in
  let slot v = ((Schedule.cycle sched v mod ii) + ii) mod ii in
  let tbl : (Opcode.fu_class * int, int list) Hashtbl.t = Hashtbl.create 16 in
  for v = n - 1 downto 0 do
    let key = (Opcode.fu_class (Ddg.node ddg v).Ddg.opcode, slot v) in
    Hashtbl.replace tbl key (v :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
  done;
  let bucket = Array.make n [||] and pos = Array.make n 0 in
  Hashtbl.iter
    (fun _ ids ->
      let ids = Array.of_list ids in
      Array.iteri
        (fun i v ->
          bucket.(v) <- ids;
          pos.(v) <- i)
        ids)
    tbl;
  { bucket; pos }

(* The cross-cluster pairs of [sched], in ascending [(a, b)] order — the
   order the greedy pass breaks ties in. *)
let iter_candidates { bucket; pos } sched f =
  Array.iteri
    (fun a ids ->
      let ca = Schedule.cluster sched a in
      for j = pos.(a) + 1 to Array.length ids - 1 do
        let b = ids.(j) in
        if Schedule.cluster sched b <> ca then f a b
      done)
    bucket

let candidates sched =
  let pairs = ref [] in
  iter_candidates (buckets sched) sched (fun a b -> pairs := (a, b) :: !pairs);
  List.rev !pairs

let cost ~estimate sched =
  match estimate with
  | Max_live -> Requirements.max_live_cost sched
  | Exact -> (Requirements.partitioned sched).Requirements.requirement

(* Per-cluster MaxLive kept incrementally.  Lifetimes depend on cycles
   only, so each value's footprint on a cluster's kernel-slot row is
   fixed for the whole pass: [whole] instances in every slot plus one
   more in the [rem] slots from [start] (the rule of
   [Lifetime.max_live]); [base] sums the [whole] parts and [rows] the
   rest.  A value sits in the row of every cluster holding one of its
   flow consumers ([count], per value and cluster), or in its
   producer's row when it has none ([sole]) — [Classify.value_class]
   read as a cluster set.  Moving node [x] therefore changes only the
   membership of the values it reads ([operands]) and of its own value
   when [sole]. *)
type occupancy = {
  k : int;
  ii : int;
  whole : int array;
  rem : int array;
  start : int array;
  sole : bool array;
  operands : int array array;
  count : int array;  (* [v * k + c]: flow consumers of v on cluster c *)
  base : int array;
  rows : int array;  (* [c * ii + slot] *)
  peak : int array;  (* per cluster: its MaxLive *)
}

(* Add [d] (1 or -1) copies of value [v]'s footprint to cluster [c]. *)
let shift o v c d =
  o.base.(c) <- o.base.(c) + (d * o.whole.(v));
  let row = c * o.ii in
  let s = ref o.start.(v) in
  for _ = 1 to o.rem.(v) do
    o.rows.(row + !s) <- o.rows.(row + !s) + d;
    s := if !s + 1 = o.ii then 0 else !s + 1
  done

let peak_of o c =
  let m = ref 0 in
  for s = c * o.ii to ((c + 1) * o.ii) - 1 do
    if o.rows.(s) > !m then m := o.rows.(s)
  done;
  o.base.(c) + !m

(* Move node [x] from cluster [p] to a different cluster [q], updating
   every row it affects. *)
let move o x p q =
  if o.sole.(x) then begin
    shift o x p (-1);
    shift o x q 1
  end;
  let operands = o.operands.(x) in
  for j = 0 to Array.length operands - 1 do
    let v = operands.(j) in
    let i = v * o.k in
    let cp = o.count.(i + p) - 1 and cq = o.count.(i + q) + 1 in
    o.count.(i + p) <- cp;
    o.count.(i + q) <- cq;
    if cp = 0 then shift o v p (-1);
    if cq = 1 then shift o v q 1
  done

let occupancy sched =
  let ddg = sched.Schedule.ddg in
  let k = Config.num_clusters sched.Schedule.config in
  let ii = Schedule.ii sched in
  let n = Ddg.num_nodes ddg in
  let o =
    {
      k;
      ii;
      whole = Array.make n 0;
      rem = Array.make n 0;
      start = Array.make n 0;
      sole = Array.make n false;
      operands =
        Array.init n (fun x ->
            List.filter_map
              (fun e -> if e.Ddg.kind = Ddg.Flow then Some e.Ddg.src else None)
              (Ddg.preds ddg x)
            |> Array.of_list);
      count = Array.make (n * k) 0;
      base = Array.make k 0;
      rows = Array.make (k * ii) 0;
      peak = Array.make k 0;
    }
  in
  List.iter
    (fun l ->
      let v = l.Lifetime.producer and len = max 0 (Lifetime.length l) in
      o.whole.(v) <- len / ii;
      o.rem.(v) <- len mod ii;
      o.start.(v) <- ((l.Lifetime.start mod ii) + ii) mod ii;
      match Ddg.consumers ddg v with
      | [] ->
        o.sole.(v) <- true;
        shift o v (Schedule.cluster sched v) 1
      | consumers ->
        List.iter
          (fun e ->
            let i = (v * k) + Schedule.cluster sched e.Ddg.dst in
            o.count.(i) <- o.count.(i) + 1;
            if o.count.(i) = 1 then shift o v (Schedule.cluster sched e.Ddg.dst) 1)
          consumers)
    (Lifetime.of_schedule sched);
  for c = 0 to k - 1 do
    o.peak.(c) <- peak_of o c
  done;
  o

(* A scorer prices exchanging the clusters of [a] and [b] in the
   current schedule and is told when an exchange is accepted. *)
type scorer = {
  initial : int;
  score : Schedule.t -> int -> int -> int;
  commit : Schedule.t -> int -> int -> unit;
}

(* Price a swap by its delta: move the two nodes, rescan the two rows
   they touched, read the max, move them back. *)
let max_live_scorer sched =
  let o = occupancy sched in
  let score sched a b =
    let p = Schedule.cluster sched a and q = Schedule.cluster sched b in
    move o a p q;
    move o b q p;
    let cost = ref 0 in
    for c = 0 to o.k - 1 do
      let pc = if c = p || c = q then peak_of o c else o.peak.(c) in
      if pc > !cost then cost := pc
    done;
    move o b p q;
    move o a q p;
    !cost
  in
  let commit sched a b =
    let p = Schedule.cluster sched a and q = Schedule.cluster sched b in
    move o a p q;
    move o b q p;
    o.peak.(p) <- peak_of o p;
    o.peak.(q) <- peak_of o q
  in
  { initial = Array.fold_left max 0 o.peak; score; commit }

let exact_scorer sched =
  {
    initial = cost ~estimate:Exact sched;
    score = (fun sched a b -> cost ~estimate:Exact (Schedule.swap_clusters sched a b));
    commit = (fun _ _ _ -> ());
  }

let improve ?(estimate = Max_live) ?(max_passes = 1000) sched =
  if Config.num_clusters sched.Schedule.config < 2 then begin
    let c = cost ~estimate sched in
    (sched, { swaps = 0; initial_cost = c; final_cost = c })
  end
  else begin
    let scorer =
      match estimate with
      | Max_live -> max_live_scorer sched
      | Exact -> exact_scorer sched
    in
    let buckets = buckets sched in
    (* Each pass applies the first pair, in ascending (a, b) order, of
       those with the lowest cost, provided it is below [current]. *)
    let rec loop sched current swaps passes =
      if passes >= max_passes then (sched, current, swaps)
      else begin
        let best = ref current and best_a = ref (-1) and best_b = ref (-1) in
        iter_candidates buckets sched (fun a b ->
            let c = scorer.score sched a b in
            if c < !best then begin
              best := c;
              best_a := a;
              best_b := b
            end);
        if !best_a < 0 then (sched, current, swaps)
        else begin
          scorer.commit sched !best_a !best_b;
          let sched = Schedule.swap_clusters sched !best_a !best_b in
          loop sched !best (swaps + 1) (passes + 1)
        end
      end
    in
    let sched, final_cost, swaps = loop sched scorer.initial 0 0 in
    (sched, { swaps; initial_cost = scorer.initial; final_cost })
  end
