(* The benchmark's own arithmetic: percentiles under the tail rule,
   self time of spans, and ratios that carry their base.  Kept free of
   the program's libraries so it can be tested on its own. *)

(* Nearest-rank percentile of a non-empty sample: the smallest value
   with at least [p]% of the samples at or below it. *)
let percentile xs p =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  Array.sort Float.compare a;
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile xs 50.0

(* Samples ranked strictly above the [p]th percentile's rank. *)
let beyond ~n p =
  n - max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))

(* A tail is reported at the highest percentile that still has at
   least ten samples beyond it.  [tail xs ~want] returns the percentile
   actually used — [want] when the sample is large enough, otherwise the
   highest of the usual steps below it — and its value.  A sample too
   small for any step falls back to its median. *)
let tail_steps = [ 99.9; 99.0; 95.0; 90.0; 75.0 ]

let tail xs ~want =
  let n = List.length xs in
  let candidates = List.filter (fun p -> p <= want) (want :: tail_steps) in
  match List.find_opt (fun p -> beyond ~n p >= 10) candidates with
  | Some p -> (p, percentile xs p)
  | None -> (50.0, median xs)

(* {2 Spans} *)

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  name : string;
  key : string;  (** the point or request the span worked on *)
  domain : int;
  t0 : float;
  t1 : float;
}

let duration s = s.t1 -. s.t0

(* Length of the union of intervals, each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of it that its
   children cover.  Children that ran in parallel (pool jobs under one
   map) overlap; their union is subtracted once, never their sum.
   Returns [(span, self)] in input order. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent (s.t0, s.t1))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, duration s -. covered ~lo:s.t0 ~hi:s.t1 kids))
    spans

(* Summed self time per span name, sorted by name. *)
let self_by_name spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (prev +. self))
    (self_times spans);
  List.sort compare (List.of_seq (Hashtbl.to_seq tbl))

(* {2 Pool occupancy} *)

(* For one map: [busy_frac] is the summed job time over [jobs] x the
   map's wall time; [tail_wait] is the time from the first executor
   running out of work (the earliest "last job end" over executors) to
   the end of the map.  An executor that ran no job was idle from the
   start. *)
let pool_occupancy ~jobs ~map:(m : span) (job_spans : span list) =
  let busy = List.fold_left (fun acc s -> acc +. duration s) 0.0 job_spans in
  let wall = duration m in
  let last_end = Hashtbl.create 4 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:m.t0 (Hashtbl.find_opt last_end s.domain) in
      Hashtbl.replace last_end s.domain (Float.max prev s.t1))
    job_spans;
  let ends = List.of_seq (Hashtbl.to_seq_values last_end) in
  let first_idle =
    if Hashtbl.length last_end < jobs then m.t0
    else List.fold_left Float.min m.t1 ends
  in
  let busy_frac = if wall > 0.0 then busy /. (float_of_int jobs *. wall) else 0.0 in
  (busy_frac, m.t1 -. first_idle)

(* {2 Ratios} *)

(* A ratio is never reported without its base: [num] and [base] are
   printed next to the quotient.  An empty base gives 0. *)
type ratio = { num : float; base : float; value : float }

let ratio ~num ~base = { num; base; value = (if base = 0.0 then 0.0 else num /. base) }

let pp_ratio r = Printf.sprintf "%.6g (%.6g / %.6g)" r.value r.num r.base
