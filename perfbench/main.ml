(* The ncdrf benchmark: four workloads driven from outside the program
   through its public functions.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--jobs J] [--suite-seed N] [--request-seed N]
              [--ncdrf PATH] [--commit SHA]

   Workloads: sweep-spill, sweep-unbounded, store-warm, serve-mixed
   (see README.md).  With --trace 0 the run measures with every
   observability layer off and prints the end-to-end metrics; with
   --trace 1 it records the benchmark's own spans around each call into
   the program and prints the per-layer metrics.  The last line of
   standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   Outputs are checked outside the timed region; every failure,
   divergence or mismatch counts in "failed". *)

open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched
open Ncdrf_core
module Pool = Ncdrf_parallel.Pool
module Telemetry = Ncdrf_telemetry.Telemetry
module Json = Telemetry.Json
module Store = Ncdrf_cache.Store
module Suite = Ncdrf_workloads.Suite
module Kernels = Ncdrf_workloads.Kernels
module Protocol = Ncdrf_server.Protocol
module Client = Ncdrf_server.Client
module Executor = Ncdrf_sim.Executor
module Reference = Ncdrf_sim.Reference
module Stats = Perfbench_stats.Stats

(* ------------------------------------------------------------------ *)
(* Arguments and host                                                  *)
(* ------------------------------------------------------------------ *)

let workload = ref ""
let seed = ref 42
let seconds = ref 10.0
let traced = ref false
let nproc = Domain.recommended_domain_count ()
let jobs = ref (min 2 nproc)
let suite_seed : int option ref = ref None
let request_seed : int option ref = ref None
let suite_size = 795
let ncdrf_exe = ref "_build/default/bin/ncdrf.exe"
let commit = ref "unknown"
(* Stores, sockets, daemon logs and span files, inside the checkout. *)
let work_dir = ".perfbench"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let parse_args () =
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S measuring time of the run");
      ("--trace", Arg.Int (fun t -> traced := t <> 0), "0|1 per-layer run");
      ("--jobs", Arg.Set_int jobs, "J pool domains / client connections");
      ("--suite-seed", Arg.Int (fun s -> suite_seed := Some s), "N suite seed (default 42)");
      ( "--request-seed",
        Arg.Int (fun s -> request_seed := Some s),
        "N request-sequence seed (default --seed)" );
      ("--ncdrf", Arg.Set_string ncdrf_exe, "PATH ncdrf executable for serve-mixed");
      ("--commit", Arg.Set_string commit, "SHA commit stamped on the result");
    ]
  in
  Arg.parse specs (fun a -> die "unexpected argument %S" a) "perfbench/main.exe [options]";
  if !jobs < 1 then die "--jobs must be at least 1";
  (* Oversubscribed pools inflate every stage's wall time; a number
     taken that way supports no decision. *)
  if !jobs > nproc then die "--jobs %d exceeds the host's %d cores" !jobs nproc;
  if !seconds <= 0.0 then die "--seconds must be positive"

(* The suite is the paper-scale dataset, seed 42 unless overridden: the
   suite seed changes the amount of work by about 10% (heavy-tailed
   spill points), so --seed instead permutes the order the loops are
   submitted in, seeds the request sequence and picks the checked
   sample. *)
let the_suite_seed () = Option.value ~default:42 !suite_seed
let the_request_seed () = Option.value ~default:!seed !request_seed

let host_line () =
  Printf.sprintf
    "host: nproc=%d jobs=%d ocaml=%s OCAMLRUNPARAM=%s commit=%s suite_seed=%d \
     request_seed=%d size=%d"
    nproc !jobs Sys.ocaml_version
    (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM"))
    !commit (the_suite_seed ()) (the_request_seed ()) suite_size

(* ------------------------------------------------------------------ *)
(* Clocks, memory, CPU                                                 *)
(* ------------------------------------------------------------------ *)

let now = Telemetry.now

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A field of /proc/<pid>/status in kB, as MB. *)
let status_mb ~pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line ->
        let prefix = field ^ ":" in
        if String.starts_with ~prefix line then
          let rest = String.sub line (String.length prefix) (String.length line - String.length prefix) in
          Scanf.sscanf rest " %d" (fun kb -> float_of_int kb /. 1024.0)
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* User + system CPU seconds of another process (clock ticks of 1/100 s,
   Linux's fixed USER_HZ). *)
let cpu_of_pid pid =
  match open_in (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> 0.0
  | ic ->
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    (* Fields after the parenthesised command name; utime and stime
       are fields 14 and 15 of the whole line. *)
    let rest = String.sub line (String.rindex line ')' + 2) (String.length line - String.rindex line ')' - 2) in
    let fields = Array.of_list (String.split_on_char ' ' rest) in
    float_of_int (int_of_string fields.(11) + int_of_string fields.(12)) /. 100.0

(* ------------------------------------------------------------------ *)
(* Spans (traced runs only)                                            *)
(* ------------------------------------------------------------------ *)

(* Spans are kept in memory and written out when the run ends.  A span
   is recorded around each call into the program; [f] receives the new
   span's id so the calls it makes can name it as their parent. *)
module Spans = struct
  let on = ref false
  let next = Atomic.make 1
  let lock = Mutex.create ()
  let recorded : Stats.span list ref = ref []

  let with_span ~parent ~name ~key f =
    if not !on then f 0
    else begin
      let id = Atomic.fetch_and_add next 1 in
      let t0 = now () in
      let finish () =
        let s =
          { Stats.id; parent; name; key; domain = (Domain.self () :> int); t0; t1 = now () }
        in
        Mutex.protect lock (fun () -> recorded := s :: !recorded)
      in
      Fun.protect ~finally:finish (fun () -> f id)
    end

  let drain () =
    Mutex.protect lock (fun () ->
        let all = List.rev !recorded in
        recorded := [];
        all)

  let write ~path spans =
    let line (s : Stats.span) =
      Json.to_compact
        (Json.Obj
           [
             ("id", Json.Int s.id); ("parent", Json.Int s.parent);
             ("name", Json.String s.name); ("key", Json.String s.key);
             ("domain", Json.Int s.domain); ("start_s", Json.Float s.t0);
             ("end_s", Json.Float s.t1);
           ])
    in
    Json.write_file ~path (String.concat "\n" (List.map line spans) ^ "\n")
end

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

let metrics : (string * float * string) list ref = ref []
let metric name unit value = metrics := (name, value, unit) :: !metrics

(* Per-layer values, emitted by name at the end of a traced run. *)
let layer : (string, float) Hashtbl.t = Hashtbl.create 64
let set_layer name v = Hashtbl.replace layer name v
let attempted = ref 0
let failed = ref 0
let problems : string list ref = ref []

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failed;
      if List.length !problems < 20 then problems := s :: !problems)
    fmt

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result () =
  let ms = List.rev !metrics in
  List.iter (fun (n, v, u) -> Printf.printf "%-28s %16.6f %s\n" n v u) ms;
  List.iter (fun p -> Printf.printf "problem: %s\n" p) (List.rev !problems);
  print_endline (host_line ());
  let body =
    String.concat ", "
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
         ms)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) (max 1 !attempted) !failed body

(* ------------------------------------------------------------------ *)
(* The output check: executor against the reference interpreter       *)
(* ------------------------------------------------------------------ *)

let sim_iterations = 12
let sim_verified = ref 0
let sim_diverged = ref 0
let sim_time = ref 0.0

(* Run a final schedule on the cycle-accurate executor — one unified
   file for the unified models, the clustered subfiles for the dual
   ones — and compare its stores with the independent interpreter. *)
let verify ~label ~(model : Model.t) (sched : Schedule.t) =
  let ok, dt =
    timed (fun () ->
        try
          let expected = Reference.run ~iterations:sim_iterations sched.Schedule.ddg in
          let outcome =
            match model with
            | Model.Ideal | Model.Unified -> Executor.run_unified ~iterations:sim_iterations sched
            | Model.Partitioned | Model.Swapped ->
              Executor.run_clustered ~iterations:sim_iterations sched
          in
          Reference.equal_stores expected outcome.Executor.stores
        with e ->
          fail "%s: executor raised %s" label (Printexc.to_string e);
          false)
  in
  sim_time := !sim_time +. dt;
  incr attempted;
  if ok then incr sim_verified
  else begin
    incr sim_diverged;
    fail "%s: executor diverged from the reference" label
  end

(* Points whose spiller gave up (Spill_diverged on the stats). *)
let unfit = ref 0

(* The seeded sample of unspilled points that is also run. *)
let sampled ~salt name = Hashtbl.hash (!seed, salt, name) mod 16 = 0

(* ------------------------------------------------------------------ *)
(* Batch workloads                                                     *)
(* ------------------------------------------------------------------ *)

type group =
  | Fig8 of { config : Config.t; latency : int; capacity : int; model : Model.t }
      (** one Figure 8 cell: every loop through the spill pipeline *)
  | Fig6 of { config : Config.t; latency : int; k : int }
      (** one Figure 6/7 configuration: every loop's three views *)

let group_label = function
  | Fig8 g -> Printf.sprintf "L%d/R%d/%s" g.latency g.capacity (Model.to_string g.model)
  | Fig6 g -> Printf.sprintf "L%d/k%d" g.latency g.k

let fig8_groups () =
  List.concat_map
    (fun latency ->
      List.concat_map
        (fun capacity ->
          List.map
            (fun model -> Fig8 { config = Config.dual ~latency; latency; capacity; model })
            Model.all)
        [ 32; 64 ])
    [ 3; 6 ]

let fig6_models = [ Model.Unified; Model.Partitioned; Model.Swapped ]

let fig6_groups () =
  List.concat_map
    (fun latency ->
      List.map (fun k -> Fig6 { config = Config.k_cluster ~k ~latency (); latency; k }) [ 2; 4 ])
    [ 3; 6 ]

(* One compiled (config, capacity, model, loop) point of a pass. *)
type out = {
  loop : Suite_stats.workload;
  model : Model.t;
  capacity : int option;
  ii : int;
  requirement : int;
  spilled : int;
  added_memops : int;
  memops : int;  (** memory operations per iteration, spill code included *)
  diverged : bool;
  sched : Schedule.t;
}

let out_of_stats loop (s : Pipeline.stats) =
  {
    loop; model = s.Pipeline.model; capacity = s.Pipeline.capacity;
    ii = s.Pipeline.ii; requirement = s.Pipeline.requirement; spilled = s.Pipeline.spilled;
    added_memops = s.Pipeline.added_memops; memops = s.Pipeline.memops_per_iter;
    diverged = s.Pipeline.error <> None;
    sched = s.Pipeline.schedule;
  }

(* Per-loop work of a group — the body [Suite_stats.performance]
   (Fig8) and [Suite_stats.measure_all] (Fig6) map over the pool. *)
let group_job group (loop : Suite_stats.workload) =
  match group with
  | Fig8 g ->
    [ out_of_stats loop (Pipeline.run ~config:g.config ~model:g.model ~capacity:g.capacity loop.ddg) ]
  | Fig6 g ->
    let raw = Artifact.raw_schedule ~config:g.config loop.ddg in
    let memops = Ddg.num_memory_ops loop.ddg in
    List.map
      (fun model ->
        let v = Artifact.view_of_schedule ~model raw in
        {
          loop; model; capacity = None; ii = Schedule.ii v.Artifact.sched;
          requirement = v.Artifact.requirement; spilled = 0; added_memops = 0; memops;
          diverged = false; sched = v.Artifact.sched;
        })
      fig6_models

let loop_name (l : Suite_stats.workload) = Ddg.name l.ddg

let points_of_group loops = function
  | Fig8 _ -> List.length loops
  | Fig6 _ -> List.length loops * List.length fig6_models

type pass = {
  wall : float;
  cpu : float;
  points : int;
  job_times : float list;  (** one per pool job *)
  outs : out list;
}

(* An untraced pass: the in-memory cache is cleared first, as every CLI
   process starts cold, then each group is one pool map. *)
let untraced_pass pool loops groups =
  Artifact.clear_cache ();
  let cpu0 = cpu_self () in
  let t0 = now () in
  let per_group =
    List.map
      (fun group ->
        Spans.with_span ~parent:0 ~name:"map" ~key:(group_label group) (fun map ->
            Pool.try_map_exn pool ~label:loop_name
              (fun l ->
                Spans.with_span ~parent:map ~name:"job" ~key:(loop_name l) (fun _ ->
                    timed (fun () -> group_job group l)))
              loops))
      groups
  in
  let wall = now () -. t0 in
  let cpu = cpu_self () -. cpu0 in
  let points = List.fold_left (fun acc g -> acc + points_of_group loops g) 0 groups in
  attempted := !attempted + points;
  let outs = ref [] and job_times = ref [] in
  List.iter
    (List.iter (function
      | Ok (os, dt) ->
        outs := List.rev_append os !outs;
        job_times := dt :: !job_times
      | Error (label, e) -> fail "%s raised %s" label (Printexc.to_string e)))
    per_group;
  { wall; cpu; points; job_times = !job_times; outs = List.rev !outs }

(* A traced pass calls the memoized stages in dependency order, one
   span per call, so each later call hits the cache for the stages
   before it and every span's self time is its own stage's cost:
   mii -> schedule -> Unified/Partitioned views -> Swapped view ->
   Pipeline.run per capacity and model (the spill loop). *)
type traced_pass = {
  t_wall : float;
  spans : Stats.span list;
  maps : (Stats.span * Stats.span list) list;  (** map span, its job spans *)
  counters : (string * int) list;
  swaps : int;
  ii_sum : int;
  mii_sum : int;
  spill_points : float list;  (** Pipeline.run spans that entered the spill loop *)
}

(* Each map span with the job spans under it. *)
let maps_of spans =
  let jobs_of = Hashtbl.create 8 in
  List.iter (fun (s : Stats.span) -> if s.name = "job" then Hashtbl.add jobs_of s.parent s) spans;
  List.filter_map
    (fun (s : Stats.span) -> if s.name = "map" then Some (s, Hashtbl.find_all jobs_of s.id) else None)
    spans

(* [record] false runs the same calls with spans and telemetry off: the
   baseline of the tracing overhead. *)
let traced_pass pool loops ~spill ~record =
  Artifact.clear_cache ();
  Telemetry.reset ();
  ignore (Spans.drain ());
  Spans.on := record;
  Telemetry.enable record;
  let configs =
    if spill then List.map (fun l -> (l, 2)) [ 3; 6 ] else List.concat_map (fun l -> [ (l, 2); (l, 4) ]) [ 3; 6 ]
  in
  let swaps = Atomic.make 0 and ii_sum = Atomic.make 0 and mii_sum = Atomic.make 0 in
  let entered = Mutex.create () and entered_ids = Hashtbl.create 1024 in
  let job ~parent ~config ~cfg_name (loop : Suite_stats.workload) =
    let key = cfg_name ^ "/" ^ Ddg.name loop.ddg in
    Spans.with_span ~parent ~name:"job" ~key @@ fun job ->
    let call name f = Spans.with_span ~parent:job ~name ~key (fun _ -> f ()) in
    let mii = call "sched.mii" (fun () -> Artifact.mii ~config loop.ddg) in
    let art = call "sched.schedule" (fun () -> Artifact.scheduled ~config loop.ddg) in
    ignore (Atomic.fetch_and_add mii_sum mii);
    ignore (Atomic.fetch_and_add ii_sum (Schedule.ii art.Artifact.raw));
    let views =
      List.map
        (fun model ->
          let name = if model = Model.Swapped then "swap.view" else "regalloc.view" in
          (model, call name (fun () -> Artifact.view art ~model)))
        fig6_models
    in
    ignore (Atomic.fetch_and_add swaps (List.assoc Model.Swapped views).Artifact.swaps);
    if spill then
      List.iter
        (fun capacity ->
          List.iter
            (fun model ->
              let req =
                match model with
                | Model.Ideal -> 0
                | m -> (List.assoc m views).Artifact.requirement
              in
              Spans.with_span ~parent:job ~name:"spill.run"
                ~key:(Printf.sprintf "%s/R%d/%s" key capacity (Model.to_string model))
                (fun id ->
                  if req > capacity then Mutex.protect entered (fun () -> Hashtbl.replace entered_ids id ());
                  ignore (Pipeline.run ~config ~model ~capacity loop.ddg)))
            Model.all)
        [ 32; 64 ]
  in
  let t0 = now () in
  Spans.with_span ~parent:0 ~name:"pass" ~key:"" (fun pass ->
      List.iter
        (fun (latency, k) ->
          let config = Config.k_cluster ~k ~latency () in
          let cfg_name = Printf.sprintf "L%d/k%d" latency k in
          Spans.with_span ~parent:pass ~name:"map" ~key:cfg_name (fun map ->
              List.iter
                (function
                  | Ok () -> ()
                  | Error (label, e) -> fail "%s raised %s" label (Printexc.to_string e))
                (Pool.try_map_exn pool ~label:loop_name (job ~parent:map ~config ~cfg_name) loops)))
        configs);
  let t_wall = now () -. t0 in
  Spans.on := false;
  Telemetry.enable false;
  let spans = Spans.drain () in
  let maps = maps_of spans in
  let spill_points =
    List.filter_map
      (fun (s : Stats.span) ->
        if s.name = "spill.run" && Hashtbl.mem entered_ids s.id then Some (Stats.duration s)
        else None)
      spans
  in
  {
    t_wall; spans; maps; counters = Telemetry.counters (); swaps = Atomic.get swaps;
    ii_sum = Atomic.get ii_sum; mii_sum = Atomic.get mii_sum; spill_points;
  }

(* The suite in the seeded submission order. *)
let load_suite () =
  let loops =
    Array.of_list
      (List.map
         (fun (e : Suite.entry) -> { Suite_stats.ddg = e.Suite.ddg; weight = e.Suite.iterations })
         (Suite.full ~size:suite_size ~seed:(the_suite_seed ()) ()))
  in
  let rng = Random.State.make [| !seed |] in
  for i = Array.length loops - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = loops.(i) in
    loops.(i) <- loops.(j);
    loops.(j) <- t
  done;
  Array.to_list loops

(* Output quality of a pass: Σ weight × final II, Σ memory ops per
   iteration (spill code included), Σ added spill memory ops, Σ
   register requirement. *)
type quality = { cycles : float; memops : int; spill_ops : int; regs : int }

let no_quality = { cycles = 0.0; memops = 0; spill_ops = 0; regs = 0 }

let report_quality q =
  set_layer "spill.added_memops" (float_of_int q.spill_ops);
  set_layer "spill.unfit" (float_of_int !unfit);
  Printf.printf "quality: weighted_cycles=%.17g memops=%d spill_memops=%d regs_required=%d\n"
    q.cycles q.memops q.spill_ops q.regs

(* The spill ops alone are 0 by construction without a register limit,
   so the end-to-end metric counts every memory op of the final code;
   the spill part is a per-layer metric. *)
let quality_metrics q =
  metric "weighted_cycles" "cycles" q.cycles;
  metric "memops" "ops" (float_of_int q.memops);
  metric "regs_required" "regs" (float_of_int q.regs)

let quality_of outs =
  List.fold_left
    (fun q o ->
      {
        cycles = q.cycles +. (o.loop.weight *. float_of_int o.ii);
        memops = q.memops + o.memops;
        spill_ops = q.spill_ops + o.added_memops;
        regs = q.regs + o.requirement;
      })
    no_quality outs

(* Check a pass's outputs: diverged spillers fail; every spilled final
   plus a seeded sample of the rest runs on the executor; the library's
   own suite-level calls, replayed on the warm cache, must agree with
   the per-point results. *)
let check_pass pool loops groups (p : pass) =
  List.iter
    (fun o ->
      let label =
        Printf.sprintf "%s/%s/%s" (Ddg.name o.loop.ddg) (Model.to_string o.model)
          (match o.capacity with Some c -> string_of_int c | None -> "inf")
      in
      (* A spiller that gives up is a soft degradation the program
         reports, not a failure: it is counted and printed. *)
      if o.diverged then incr unfit;
      if o.spilled > 0 || sampled ~salt:label (Ddg.name o.loop.ddg) then
        verify ~label ~model:o.model o.sched)
    p.outs;
  let rec take n xs = if n = 0 then ([], xs) else match xs with [] -> ([], []) | x :: r -> let a, b = take (n - 1) r in (x :: a, b) in
  ignore
    (List.fold_left
       (fun outs group ->
         match group with
         | Fig8 g ->
           let mine, rest = take (List.length loops) outs in
           let lib =
             Suite_stats.performance ~pool ~config:g.config ~model:g.model ~capacity:g.capacity loops
           in
           let spills = List.fold_left (fun acc o -> acc + o.spilled) 0 mine in
           let unfit = List.length (List.filter (fun o -> o.diverged) mine) in
           if lib.Suite_stats.total_spills <> spills || lib.Suite_stats.unfit <> unfit then
             fail "%s: Suite_stats.performance disagrees (spills %d vs %d, unfit %d vs %d)"
               (group_label group) lib.Suite_stats.total_spills spills lib.Suite_stats.unfit unfit;
           rest
         | Fig6 g ->
           let n = List.length loops * List.length fig6_models in
           let mine, rest = take n outs in
           let lib = Suite_stats.measure_all ~pool ~config:g.config ~models:fig6_models loops in
           (* [measure_all] returns one list per model; the pass keeps
              each loop's three views together. *)
           let by_model = Array.of_list (List.map (fun (_, ms) -> Array.of_list ms) lib) in
           let lib_rows =
             List.concat
               (List.init (List.length loops) (fun i ->
                    Array.to_list (Array.map (fun ms -> ms.(i)) by_model)))
           in
           List.iter2
             (fun o (m : Suite_stats.measurement) ->
               if o.ii <> m.ii || o.requirement <> m.requirement then
                 fail "%s/%s: Suite_stats.measure_all disagrees" (group_label group)
                   (Ddg.name o.loop.ddg))
             mine lib_rows;
           rest)
       p.outs groups)

(* Per-layer metrics every workload reports; a layer not on a
   workload's path reports 0. *)
let per_layer_names =
  [
    ("workloads.gen_s", "s"); ("sched.mii_self_s", "s"); ("sched.schedule_self_s", "s");
    ("sched.ii_over_mii", "ratio"); ("regalloc.view_self_s", "s"); ("regalloc.alloc_probes", "count");
    ("regalloc.table_reuse_ratio", "ratio"); ("swap.self_s", "s"); ("swap.swaps", "count");
    ("spill.self_s", "s"); ("spill.point_p50_ms", "ms"); ("spill.point_p99_ms", "ms");
    ("spill.rounds", "count"); ("spill.lb_pruned_ratio", "ratio");
    ("spill.added_memops", "ops"); ("spill.unfit", "count"); ("pipeline.point_p50_ms", "ms");
    ("pipeline.point_p99_ms", "ms"); ("cache.hit_ratio", "ratio"); ("cache.lookups", "count");
    ("store.read_pass_s", "s"); ("store.write_pass_s", "s"); ("store.hit_ratio", "ratio");
    ("store.bytes", "bytes"); ("pool.busy_frac", "ratio"); ("pool.tail_wait_s", "s");
    ("server.exec_p50_ms", "ms"); ("server.exec_p99_ms", "ms"); ("serve.outside_p50_ms", "ms");
    ("protocol.parse_us", "us"); ("protocol.render_us", "us"); ("server.queued_max", "count");
    ("server.shed", "count"); ("telemetry.armed_ratio", "ratio");
    ("gc.minor_words_per_point", "words"); ("gc.promoted_words_per_point", "words");
    ("gc.major_collections", "count"); ("sim.verified", "count"); ("sim.diverged", "count");
    ("sim.verify_s", "s"); ("bench.trace_overhead_frac", "ratio");
  ]


(* A ratio is stored as its value; its base is printed beside it. *)
let set_ratio name r =
  Printf.printf "ratio %s = %s\n" name (Stats.pp_ratio r);
  set_layer name r.Stats.value

let emit_per_layer () =
  set_layer "sim.verified" (float_of_int !sim_verified);
  set_layer "sim.diverged" (float_of_int !sim_diverged);
  set_layer "sim.verify_s" !sim_time;
  List.iter
    (fun (name, unit) ->
      metric name unit (Option.value ~default:0.0 (Hashtbl.find_opt layer name)))
    per_layer_names

let ms = 1000.0
let medianf f xs = Stats.median (List.map f xs)

(* A percentile metric under the tail rule; prints the percentile
   actually used when the sample is too small for the one named. *)
let tail_metric name ~want xs =
  let p, v = Stats.tail xs ~want in
  if p <> want then
    Printf.printf "note: %s reports p%g (%d samples leave fewer than 10 beyond p%g)\n" name p
      (List.length xs) want;
  v

let rm_rf path = if Sys.file_exists path then ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; path ]))

let ensure_dir path = if not (Sys.file_exists path) then Sys.mkdir path 0o755

type batch_kind = Spill | Unbounded | Store_warm

(* Repeat [f] until [budget] seconds have passed (at least [min] times). *)
let repeat ~budget ~min f =
  let deadline = now () +. budget in
  let rec go acc n = if n >= min && now () >= deadline then List.rev acc else go (f () :: acc) (n + 1) in
  go [] 0

let gc_words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.promoted_words, s.Gc.major_collections)

let run_batch kind =
  let groups = match kind with Unbounded -> fig6_groups () | Spill | Store_warm -> fig8_groups () in
  (* One set-up: suite generation and pool creation, plus for
     store-warm populating a fresh store with one cold sweep-spill pass
     (the write path). *)
  let setup i =
    let t0 = now () in
    let loops, gen_s = timed load_suite in
    let pool = Pool.create ~jobs:!jobs () in
    let populate =
      match kind with
      | Store_warm ->
        let dir = Filename.concat work_dir (Printf.sprintf "store-%d" i) in
        rm_rf dir;
        Store.set_ambient (Some (Store.open_store ~dir ()));
        Some (untraced_pass pool loops groups, dir)
      | Spill | Unbounded -> None
    in
    (now () -. t0, gen_s, loops, pool, populate)
  in
  let discard (_, _, _, pool, populate) =
    Pool.shutdown pool;
    Option.iter (fun (_, dir) -> rm_rf dir) populate
  in
  (* Set-up is measured several times and reported as its median.  The
     store fills (seconds each) run back to back; the short set-up of
     the other workloads is sampled once more after every timed pass, so
     its samples span the run like the passes do. *)
  let settle () = if kind = Store_warm then ignore (Sys.command "sync") in
  settle ();
  let setups =
    ref
      (List.init (if kind = Store_warm then 3 else 1) (fun i ->
           let s = setup i in
           (* Each store fill starts from a clean disk: the previous
              fill's store is removed and flushed outside the timing. *)
           if i < 2 && kind = Store_warm then begin
             discard s;
             settle ()
           end;
           s))
  in
  let _, _, loops, pool, populate = List.hd (List.rev !setups) in
  let resample () =
    if kind <> Store_warm then begin
      let s = setup 0 in
      discard s;
      setups := s :: !setups
    end
  in
  (match populate with
   | Some _ ->
     set_layer "store.write_pass_s"
       (medianf (fun (_, _, _, _, p) -> match p with Some ((p : pass), _) -> p.wall | None -> 0.0) !setups)
   | None -> ());
  let store_stats () = Option.map Store.stats (Store.ambient ()) in
  let gc_deltas = ref [] and cache_deltas = ref [] in
  (* Peak memory as a CLI process has it: set-up plus one cold pass.
     Read after the first pass, since how far the heap grows over later
     passes depends on how many fit in the run, that is on the host's
     speed. *)
  let peak_rss = ref None in
  let store0 = store_stats () in
  let one_pass () =
    let m0, p0, c0 = gc_words () in
    let cs0 = Artifact.cache_stats () in
    let p = untraced_pass pool loops groups in
    let cs1 = Artifact.cache_stats () in
    let m1, p1, c1 = gc_words () in
    gc_deltas := (m1 -. m0, p1 -. p0, c1 - c0, p.points) :: !gc_deltas;
    cache_deltas :=
      ( cs1.Ncdrf_cache.Cache.hits - cs0.Ncdrf_cache.Cache.hits,
        cs1.Ncdrf_cache.Cache.misses - cs0.Ncdrf_cache.Cache.misses )
      :: !cache_deltas;
    if !peak_rss = None then peak_rss := Some (status_mb ~pid:"self" "VmHWM");
    resample ();
    p
  in
  let untraced_budget = if !traced then !seconds /. 3.0 else !seconds in
  (* In the traced run these passes record only their map and job
     spans, for the pool's occupancy under the CLI's map structure. *)
  Spans.on := !traced;
  let passes =
    repeat ~budget:untraced_budget ~min:3 (fun () ->
        let p = one_pass () in
        (p, maps_of (Spans.drain ())))
  in
  Spans.on := false;
  let occupancy = List.map snd passes in
  let passes = List.map fst passes in
  let store1 = store_stats () in
  let last = List.nth passes (List.length passes - 1) in
  Printf.printf "pass walls: %s\n" (String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" p.wall) passes));
  Printf.printf "set-ups: %s\n"
    (String.concat " " (List.rev_map (fun (s, _, _, _, _) -> Printf.sprintf "%.4f" s) !setups));
  set_layer "workloads.gen_s" (medianf (fun (_, g, _, _, _) -> g) !setups);
  let pass_wall = medianf (fun p -> p.wall) passes in
  (* The output check runs outside the timed region. *)
  check_pass pool loops groups last;
  let q = quality_of last.outs in
  (match populate with
   | Some (cold, _) ->
     let qc = quality_of cold.outs in
     if qc <> q then
       fail "disk-warm quality differs from cold: cycles %.17g vs %.17g, memops %d vs %d"
         q.cycles qc.cycles q.memops qc.memops
   | None -> ());
  Printf.printf "passes: %d, points per pass: %d, spilled finals: %d, unfit: %d\n"
    (List.length passes) last.points
    (List.length (List.filter (fun o -> o.spilled > 0) last.outs))
    !unfit;
  report_quality q;
  if not !traced then begin
    metric "setup_s" "s" (medianf (fun (s, _, _, _, _) -> s) !setups);
    metric "peak_rss_mb" "MB" (Option.get !peak_rss);
    metric "points_per_s" "1/s" (float_of_int last.points /. pass_wall);
    metric "cpu_s_per_kpoint" "s" (medianf (fun p -> p.cpu /. (float_of_int p.points /. 1000.0)) passes);
    metric "req_per_s" "1/s" (1.0 /. pass_wall);
    (* Job percentiles are taken per pass and reported as their median
       over passes, so the first pass's heap growth does not own the
       tail. *)
    metric "sched_req_p50_ms" "ms" (ms *. medianf (fun p -> Stats.median p.job_times) passes);
    metric "sched_req_p99_ms" "ms"
      (ms *. medianf (fun p -> tail_metric "sched_req_p99_ms" ~want:99.0 p.job_times) passes);
    (* A pass is what one CLI run computes.  A run holds ten to fifty
       passes, depending on the host's speed; the tail rule would then
       pick the median on a slow host and p75 on a fast one, so the
       batch reading of the suite tail is the median on every host. *)
    let walls = List.map (fun p -> p.wall) passes in
    metric "suite_req_p50_ms" "ms" (ms *. Stats.median walls);
    metric "suite_req_p90_ms" "ms" (ms *. Stats.median walls);
    quality_metrics q
  end
  else begin
    (* Per-layer: GC and cache deltas around the untraced passes, then
       traced passes for the spans. *)
    set_layer "gc.minor_words_per_point" (medianf (fun (m, _, _, n) -> m /. float_of_int n) !gc_deltas);
    set_layer "gc.promoted_words_per_point" (medianf (fun (_, p, _, n) -> p /. float_of_int n) !gc_deltas);
    set_layer "gc.major_collections" (medianf (fun (_, _, c, _) -> float_of_int c) !gc_deltas);
    (* Pool occupancy per pass: summed job time over jobs x summed map
       wall, and the summed tail waits of its maps. *)
    let per_pass maps =
      let occ = List.map (fun (m, js) -> (Stats.duration m, Stats.pool_occupancy ~jobs:!jobs ~map:m js)) maps in
      let wall = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 occ in
      ( List.fold_left (fun acc (w, (f, _)) -> acc +. (f *. w)) 0.0 occ /. wall,
        List.fold_left (fun acc (_, (_, t)) -> acc +. t) 0.0 occ )
    in
    let occ = List.map per_pass occupancy in
    set_layer "pool.busy_frac" (medianf fst occ);
    set_layer "pool.tail_wait_s" (medianf snd occ);
    (match kind with
     | Store_warm ->
       set_layer "store.read_pass_s" pass_wall;
       (match (store0, store1) with
        | Some s0, Some s1 ->
          set_ratio "store.hit_ratio"
            (Stats.ratio
               ~num:(float_of_int (s1.Store.hits - s0.Store.hits))
               ~base:(float_of_int (s1.Store.hits - s0.Store.hits + s1.Store.misses - s0.Store.misses)));
          set_layer "store.bytes" (float_of_int s1.Store.bytes)
        | _ -> ())
     | Spill | Unbounded -> ());
    (* Stage-ordered passes, alternately without and with spans: the
       pair gives the tracing overhead, the traced ones the layers. *)
    let pass ~record = traced_pass pool loops ~spill:(kind <> Unbounded) ~record in
    let flip = ref false in
    let pairs =
      repeat ~budget:(!seconds -. untraced_budget) ~min:2 (fun () ->
          (* Alternate which of the pair runs first. *)
          flip := not !flip;
          if !flip then
            let base = pass ~record:false in
            (base, pass ~record:true)
          else
            let t = pass ~record:true in
            (pass ~record:false, t))
    in
    let tps = List.map snd pairs in
    set_layer "bench.trace_overhead_frac"
      (medianf (fun ((b : traced_pass), t) -> (t.t_wall -. b.t_wall) /. b.t_wall) pairs);
    let selfs = List.map (fun tp -> Stats.self_by_name tp.spans) tps in
    let med_self name = medianf (fun s -> Option.value ~default:0.0 (List.assoc_opt name s)) selfs in
    set_layer "sched.mii_self_s" (med_self "sched.mii");
    set_layer "sched.schedule_self_s" (med_self "sched.schedule");
    set_layer "regalloc.view_self_s" (med_self "regalloc.view");
    set_layer "swap.self_s" (med_self "swap.view");
    set_layer "spill.self_s" (med_self "spill.run");
    let tp = List.hd tps in
    set_ratio "sched.ii_over_mii"
      (Stats.ratio ~num:(float_of_int tp.ii_sum) ~base:(float_of_int tp.mii_sum));
    set_layer "swap.swaps" (float_of_int tp.swaps);
    let counter name (tp : traced_pass) = float_of_int (Option.value ~default:0 (List.assoc_opt name tp.counters)) in
    set_layer "regalloc.alloc_probes" (medianf (counter "alloc.probes") tps);
    set_ratio "regalloc.table_reuse_ratio"
      (Stats.ratio ~num:(counter "alloc.table_reuse" tp) ~base:(counter "alloc.pairs" tp));
    let rounds tp = counter "spill.full_reschedules" tp +. counter "spill.incremental_reschedules" tp in
    set_layer "spill.rounds" (medianf rounds tps);
    set_ratio "spill.lb_pruned_ratio" (Stats.ratio ~num:(counter "spill.lb_pruned" tp) ~base:(rounds tp));
    let spill_pts = List.concat_map (fun tp -> tp.spill_points) tps in
    if spill_pts <> [] then begin
      set_layer "spill.point_p50_ms" (ms *. Stats.median spill_pts);
      set_layer "spill.point_p99_ms" (ms *. tail_metric "spill.point_p99_ms" ~want:99.0 spill_pts)
    end;
    let job_durs =
      List.concat_map (fun tp -> List.concat_map (fun (_, js) -> List.map Stats.duration js) tp.maps) tps
    in
    set_layer "pipeline.point_p50_ms" (ms *. Stats.median job_durs);
    set_layer "pipeline.point_p99_ms" (ms *. tail_metric "pipeline.point_p99_ms" ~want:99.0 job_durs);
    let hits, misses = List.hd !cache_deltas in
    set_ratio "cache.hit_ratio"
      (Stats.ratio ~num:(float_of_int hits) ~base:(float_of_int (hits + misses)));
    set_layer "cache.lookups" (float_of_int (hits + misses));
    Spans.write ~path:(Filename.concat work_dir (!workload ^ "-spans.jsonl")) (List.nth tps (List.length tps - 1)).spans
  end;
  Pool.shutdown pool;
  Option.iter (fun (_, dir) -> Store.set_ambient None; rm_rf dir; settle ()) populate

(* ------------------------------------------------------------------ *)
(* serve-mixed                                                         *)
(* ------------------------------------------------------------------ *)

module Daemon = struct
  type t = { pid : int; socket : string }

  let live : t list ref = ref []
  let count = ref 0

  let stop d =
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
    live := List.filter (fun x -> x.pid <> d.pid) !live;
    if Sys.file_exists d.socket then Sys.remove d.socket

  let () = at_exit (fun () -> List.iter stop !live)

  (* Spawn [ncdrf serve] the way an operator runs it and wait for its
     first health answer.  Paths are relative to the working directory,
     which the daemon inherits, so the socket path stays short. *)
  let spawn ~armed =
    incr count;
    let file ext = Filename.concat work_dir (Printf.sprintf "serve-%d.%s" !count ext) in
    let socket = file "sock" in
    let obs = if armed then [ "--metrics"; file "metrics.json"; "--trace"; file "trace.json" ] else [] in
    let args =
      [ !ncdrf_exe; "serve"; "--socket"; socket; "--jobs"; string_of_int !jobs; "--max-inflight"; "2" ]
      @ obs
    in
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let log = Unix.openfile (file "log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    let t0 = now () in
    let pid = Unix.create_process !ncdrf_exe (Array.of_list args) null null log in
    Unix.close null;
    Unix.close log;
    let d = { pid; socket } in
    live := d :: !live;
    (* Poll for the socket finely: the client's own 50 ms connect poll
       would quantize the start-up time. *)
    let deadline = now () +. 60.0 in
    while (not (Sys.file_exists socket)) && now () < deadline do
      Unix.sleepf 0.0005
    done;
    let c = Client.connect ~connect_timeout_s:60.0 socket in
    let health = Client.roundtrip c { Protocol.id = "ready"; timeout_s = None; kind = Protocol.Health } in
    Client.close c;
    (match health with
     | Ok { Protocol.body = Protocol.Health_report _; _ } -> ()
     | _ -> die "daemon did not answer its first health request");
    (d, now () -. t0)
end

type sreq = {
  req : Protocol.request;
  key : string;  (** identity of the request's answer *)
  kind : [ `Schedule | `Suite | `Stats ];
}

(* The schedule-request catalogue: named kernels and the loops of
   loops/*.loop, each under every model, capacity and latency below.
   The capacities include spilling ones; every point fits. *)
let capacities = [ None; Some 16; Some 20; Some 24; Some 32 ]
let suite_sizes = [ 300 ]

let catalogue () =
  let kernels = List.map (fun (g, _) -> (Protocol.Named (Ddg.name g), None, Ddg.name g)) (Kernels.all ()) in
  let files =
    List.concat_map
      (fun file ->
        let path = Filename.concat "loops" file in
        let src = In_channel.with_open_bin path In_channel.input_all in
        List.map (fun g -> (Protocol.Source src, Some (Ddg.name g), file ^ ":" ^ Ddg.name g)) (Loop_lang.parse_string src))
      [ "examples.loop"; "livermore.loop"; "conditionals.loop" ]
  in
  List.concat_map
    (fun (workload, only, name) ->
      List.concat_map
        (fun latency ->
          List.concat_map
            (fun model ->
              List.map
                (fun capacity ->
                  let key =
                    Printf.sprintf "%s/L%d/%s/%s" name latency (Model.to_string model)
                      (match capacity with Some c -> string_of_int c | None -> "inf")
                  in
                  ( key,
                    Protocol.Schedule
                      {
                        workload; only; spec = { Config.default_spec with spec_latency = latency };
                        model; capacity; spill_batch = 1; spill_incremental = false; show_kernel = false;
                      } ))
                capacities)
            Model.all)
        [ 3; 6 ])
    (kernels @ files)

let suite_request ~size ~latency =
  Protocol.Suite { spec = { Config.default_spec with spec_latency = latency }; size; registers = 32 }

(* The mix: each block of 10 requests of a client holds one suite
   request, alternating between L3 and L6, and every tenth block also
   one stats poll; the rest are schedule requests drawn from the
   catalogue.  The shares are fixed rather than drawn, because suite
   requests take most of the daemon's time and a drawn share moved req/s
   by about 5% per run.  The positions inside a block are seeded, so the
   two clients do not fall into step. *)
let next_request cat rng ~client ~n =
  let id = Printf.sprintf "c%d-%d" client n in
  let block = n / 10 and slot = n mod 10 in
  let suite_slot = Hashtbl.hash (the_request_seed (), client, block) mod 10 in
  let stats_slot = (suite_slot + 1 + (Hashtbl.hash (the_request_seed (), client, block, 1) mod 9)) mod 10 in
  if block mod 10 = 9 && slot = stats_slot then
    { req = { Protocol.id; timeout_s = None; kind = Protocol.Stats }; key = "stats"; kind = `Stats }
  else if slot = suite_slot then
    let size = List.nth suite_sizes (Random.State.int rng (List.length suite_sizes)) in
    let latency = if (block + client) mod 2 = 0 then 3 else 6 in
    {
      req = { Protocol.id; timeout_s = None; kind = suite_request ~size ~latency };
      key = Printf.sprintf "suite/%d/L%d" size latency; kind = `Suite;
    }
  else
    let key, kind = cat.(Random.State.int rng (Array.length cat)) in
    { req = { Protocol.id; timeout_s = None; kind }; key; kind = `Schedule }

type answer = {
  sreq : sreq;
  latency : float;
  body : (Protocol.response_body, string) result;
}

let points_of_body = function
  | Ok (Protocol.Scheduled { points; _ }) -> List.length points
  | Ok (Protocol.Suite_report { size; _ }) -> size * List.length fig6_models
  | _ -> 0

let health_of d =
  let c = Client.connect d.Daemon.socket in
  let r = Client.roundtrip c { Protocol.id = "stats"; timeout_s = None; kind = Protocol.Stats } in
  Client.close c;
  match r with
  | Ok { Protocol.body = Protocol.Health_report h; _ } -> h
  | _ -> die "daemon did not answer a stats request"

(* Closed loop: each client connection sends its next request as soon
   as the previous answer arrives, until the window closes.  With
   [record] the client also times the codec on the frames it sends and
   receives, inside a span per request. *)
let drive d cat ~window ~record =
  let protocol_times = Mutex.create () and render = ref [] and parse = ref [] in
  let client i =
    let rng = Random.State.make [| the_request_seed (); i |] in
    let c = Client.connect d.Daemon.socket in
    let deadline = now () +. window in
    let rec loop n acc =
      if now () >= deadline then acc
      else begin
        let sr = next_request cat rng ~client:i ~n in
        let t0 = now () in
        let resp =
          Spans.with_span ~parent:0 ~name:"request" ~key:sr.req.Protocol.id (fun span ->
              if record then
                Spans.with_span ~parent:span ~name:"protocol.render" ~key:sr.req.Protocol.id (fun _ ->
                    let _, dt = timed (fun () -> Protocol.render_request sr.req) in
                    Mutex.protect protocol_times (fun () -> render := dt :: !render));
              let resp = Client.roundtrip c sr.req in
              (match resp with
               | Ok r when record ->
                 let frame = Protocol.render_response r in
                 Spans.with_span ~parent:span ~name:"protocol.parse" ~key:sr.req.Protocol.id (fun _ ->
                     let _, dt = timed (fun () -> Protocol.parse_response frame) in
                     Mutex.protect protocol_times (fun () -> parse := dt :: !parse))
               | _ -> ());
              resp)
        in
        let latency = now () -. t0 in
        let body =
          match resp with
          | Ok { Protocol.body = Protocol.Failed e; _ } -> Error (Ncdrf_error.Error.to_string e)
          | Ok { Protocol.body = Protocol.Overloaded _; _ } -> Error "overloaded"
          | Ok { Protocol.body; _ } -> Ok body
          | Error e -> Error (Ncdrf_error.Error.to_string e)
        in
        loop (n + 1) ({ sreq = sr; latency; body } :: acc)
      end
    in
    let answers = loop 0 [] in
    Client.close c;
    answers
  in
  let cpu0 = cpu_of_pid d.Daemon.pid in
  let t0 = now () in
  let results = Array.make !jobs [] in
  let threads = List.init !jobs (fun i -> Thread.create (fun () -> results.(i) <- client i) ()) in
  List.iter Thread.join threads;
  let wall = now () -. t0 in
  let cpu = cpu_of_pid d.Daemon.pid -. cpu0 in
  (List.concat (Array.to_list results), wall, cpu, !render, !parse)

(* Warm-up: one request of each kind, each suite shape once and the
   whole schedule catalogue, so that the window measures a warm daemon.
   Returns the catalogue's answers and the latencies of its work
   requests. *)
let warm_up d cat =
  let c = Client.connect d.Daemon.socket in
  let latencies = ref [] in
  let send kind =
    let r, dt = timed (fun () -> Client.roundtrip c { Protocol.id = "warm"; timeout_s = None; kind }) in
    if kind <> Protocol.Stats then latencies := dt :: !latencies;
    r
  in
  List.iter
    (fun latency -> ignore (send (suite_request ~size:(List.fold_left max 0 suite_sizes) ~latency)))
    [ 3; 6 ];
  ignore (send Protocol.Stats);
  let answers = Array.map (fun (key, kind) -> (key, kind, send kind)) cat in
  Client.close c;
  (answers, !latencies)

(* The expected answer of a schedule request, computed in process the
   way the daemon computes it. *)
let expected_points (kind : Protocol.request_kind) =
  match kind with
  | Protocol.Schedule { workload; only; spec; model; capacity; _ } ->
    let config = match Config.of_spec spec with Ok c -> c | Error m -> die "bad spec: %s" m in
    let loops =
      match workload with
      | Protocol.Source src -> Loop_lang.parse_string src
      | Protocol.Named name -> Option.to_list (Kernels.find name)
    in
    let loops = match only with None -> loops | Some n -> List.filter (fun g -> Ddg.name g = n) loops in
    List.map
      (fun ddg ->
        let stats = Pipeline.run ~config ~model ?capacity ddg in
        (Protocol.point_of_stats ~header:(Format.asprintf "%a" Ddg.pp_stats ddg) stats, stats))
      loops
  | _ -> []

let expected_suite ~size ~latency =
  let config = Config.dual ~latency in
  let loops =
    List.map
      (fun (e : Suite.entry) -> { Suite_stats.ddg = e.Suite.ddg; weight = e.Suite.iterations })
      (Suite.full ~size ())
  in
  List.map
    (fun (model, ms) ->
      let s, d = Suite_stats.allocatable ms ~r:32 in
      (model, s, d))
    (Suite_stats.measure_all ~config ~models:fig6_models loops)

(* Check every answer: the warm-up's catalogue answers equal the
   in-process results, and their spilled finals plus a seeded sample run
   on the executor; every window answer equals the catalogue's answer
   for its key, or the in-process table for a suite request; nothing
   failed.  Returns the catalogue's quality sums. *)
let check_serve warm answers =
  let reference = Hashtbl.create 4096 in
  let q = ref no_quality in
  Array.iter
    (fun (key, kind, answer) ->
      incr attempted;
      let expected = expected_points kind in
      match answer with
      | Ok { Protocol.body = Protocol.Scheduled { points; _ }; _ } ->
        Hashtbl.replace reference key points;
        (* Compared as the client prints them: the wire carries floats
           at print precision. *)
        let printed ps = List.map Protocol.render_point ps in
        if printed points <> printed (List.map fst expected) then
          fail "%s: daemon answer differs from in-process run" key;
        List.iter
          (fun ((p : Protocol.point), (s : Pipeline.stats)) ->
            q :=
              {
                cycles = !q.cycles +. float_of_int p.Protocol.ii;
                memops = !q.memops + p.Protocol.memops_per_iter;
                spill_ops = !q.spill_ops + p.Protocol.added_memops;
                regs = !q.regs + p.Protocol.requirement;
              };
            if not p.Protocol.fits then begin
              incr unfit;
              Printf.printf "unfit: %s\n" key
            end;
            if p.Protocol.spilled > 0 || sampled ~salt:"serve" key then
              verify ~label:key ~model:s.Pipeline.model s.Pipeline.schedule)
          expected
      | _ -> fail "%s: catalogue request failed" key)
    warm;
  let suites = Hashtbl.create 4 in
  List.iter
    (fun a ->
      incr attempted;
      match (a.sreq.kind, a.body) with
      | _, Error e -> fail "%s: %s" a.sreq.req.Protocol.id e
      | `Schedule, Ok (Protocol.Scheduled { points; _ }) ->
        if Some points <> Hashtbl.find_opt reference a.sreq.key then
          fail "%s: answer differs from the catalogue's" a.sreq.key
      | `Suite, Ok (Protocol.Suite_report { rows; size; failures; _ }) ->
        let latency = match a.sreq.req.Protocol.kind with Protocol.Suite { spec; _ } -> spec.Config.spec_latency | _ -> 0 in
        let expected =
          match Hashtbl.find_opt suites (size, latency) with
          | Some e -> e
          | None ->
            let e = expected_suite ~size ~latency in
            Hashtbl.replace suites (size, latency) e;
            e
        in
        let printed rs = List.map Protocol.render_suite_row rs in
        if printed rows <> printed expected || failures <> [] then
          fail "%s: suite table differs" a.sreq.key
      | `Stats, Ok (Protocol.Health_report _) -> ()
      | _, Ok _ -> fail "%s: answer of the wrong kind" a.sreq.req.Protocol.id)
    answers;
  !q

let run_serve () =
  let cat = Array.of_list (catalogue ()) in
  let n_setups = 11 in
  let setups = List.init n_setups (fun _ -> Daemon.spawn ~armed:true) in
  List.iteri (fun i (d, _) -> if i < n_setups - 1 then Daemon.stop d) setups;
  let d = fst (List.nth setups (n_setups - 1)) in
  let warm, warm_latencies = warm_up d cat in
  let sizes = List.init 3 (fun _ -> snd (timed (fun () -> Suite.full ~size:(List.fold_left max 0 suite_sizes) ()))) in
  set_layer "workloads.gen_s" (Stats.median sizes);
  let window = if !traced then !seconds /. 3.0 else !seconds in
  let answers, wall, cpu, _, _ = drive d cat ~window ~record:false in
  let h0 = health_of d in
  let traced_answers =
    if not !traced then []
    else begin
      Spans.on := true;
      let t_answers, t_wall, _, render, parse = drive d cat ~window ~record:true in
      Spans.on := false;
      let h1 = health_of d in
      let rps xs w = float_of_int (List.length xs) /. w in
      set_layer "bench.trace_overhead_frac" ((rps answers wall /. rps t_answers t_wall) -. 1.0);
      set_layer "protocol.render_us" (1e6 *. Stats.median render);
      set_layer "protocol.parse_us" (1e6 *. Stats.median parse);
      set_layer "server.exec_p50_ms" (ms *. h1.Protocol.latency_p50_s);
      set_layer "server.exec_p99_ms" (ms *. h1.Protocol.latency_p99_s);
      (* The daemon's percentiles cover every work request it has
         served, so the client side takes the same population: the
         warm-up and both windows. *)
      let work =
        List.filter_map
          (fun a -> if a.sreq.kind <> `Stats then Some a.latency else None)
          (answers @ t_answers)
      in
      set_layer "serve.outside_p50_ms"
        (ms *. (Stats.median (warm_latencies @ work) -. h1.Protocol.latency_p50_s));
      let queued =
        List.filter_map
          (fun a -> match a.body with Ok (Protocol.Health_report h) -> Some h.Protocol.queued | _ -> None)
          t_answers
      in
      set_layer "server.queued_max" (float_of_int (List.fold_left max h1.Protocol.queued queued));
      set_layer "server.shed" (float_of_int h1.Protocol.shed);
      let hits = h1.Protocol.cache_hits - h0.Protocol.cache_hits
      and misses = h1.Protocol.cache_misses - h0.Protocol.cache_misses in
      set_ratio "cache.hit_ratio" (Stats.ratio ~num:(float_of_int hits) ~base:(float_of_int (hits + misses)));
      set_layer "cache.lookups" (float_of_int (hits + misses));
      Spans.write ~path:(Filename.concat work_dir "serve-mixed-spans.jsonl") (Spans.drain ());
      (* The same mix against a daemon without --metrics/--trace. *)
      let plain, _ = Daemon.spawn ~armed:false in
      ignore (warm_up plain cat : _ * _);
      let p_answers, p_wall, _, _, _ = drive plain cat ~window ~record:false in
      Daemon.stop plain;
      set_ratio "telemetry.armed_ratio"
        (Stats.ratio ~num:(rps p_answers p_wall) ~base:(rps answers wall));
      t_answers @ p_answers
    end
  in
  let peak = status_mb ~pid:(string_of_int d.Daemon.pid) "VmHWM" in
  let q = check_serve warm (answers @ traced_answers) in
  Daemon.stop d;
  let points = List.fold_left (fun acc a -> acc + points_of_body a.body) 0 answers in
  let lat kind = List.filter_map (fun a -> if a.sreq.kind = kind then Some a.latency else None) answers in
  Printf.printf "requests: %d in %.2f s (schedule %d, suite %d), catalogue %d, unfit %d\n"
    (List.length answers) wall (List.length (lat `Schedule)) (List.length (lat `Suite)) (Array.length cat)
    !unfit;
  report_quality q;
  if not !traced then begin
    metric "setup_s" "s" (Stats.median (List.map snd setups));
    metric "peak_rss_mb" "MB" peak;
    metric "points_per_s" "1/s" (float_of_int points /. wall);
    metric "cpu_s_per_kpoint" "s" (cpu /. (float_of_int points /. 1000.0));
    metric "req_per_s" "1/s" (float_of_int (List.length answers) /. wall);
    metric "sched_req_p50_ms" "ms" (ms *. Stats.median (lat `Schedule));
    metric "sched_req_p99_ms" "ms" (ms *. tail_metric "sched_req_p99_ms" ~want:99.0 (lat `Schedule));
    metric "suite_req_p50_ms" "ms" (ms *. Stats.median (lat `Suite));
    metric "suite_req_p90_ms" "ms" (ms *. tail_metric "suite_req_p90_ms" ~want:90.0 (lat `Suite));
    quality_metrics q
  end

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  parse_args ();
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  ensure_dir work_dir;
  (match !workload with
   | "sweep-spill" -> run_batch Spill
   | "sweep-unbounded" -> run_batch Unbounded
   | "store-warm" -> run_batch Store_warm
   | "serve-mixed" -> run_serve ()
   | w -> die "unknown workload %S (sweep-spill, sweep-unbounded, store-warm, serve-mixed)" w);
  if !traced then emit_per_layer ()
  else metric "ok_frac" "ratio" (1.0 -. (float_of_int !failed /. float_of_int (max 1 !attempted)));
  print_result ()
