module Json = Json
module Stats = Ncdrf_report.Stats

external now_ns : unit -> int64 = "ncdrf_monotonic_ns"

let now () = Int64.to_float (now_ns ()) *. 1e-9

type span = {
  total_s : float;
  count : int;
  max_s : float;
}

type distribution = {
  p50_s : float;
  p90_s : float;
  p99_s : float;
}

(* Counters are Atomic cells in a copy-on-write table: readers load
   the current table from an Atomic and never see it mutated, while
   registration (rare) copies it under the lock, adds the new cell and
   publishes the copy.  Increments therefore take no lock and cannot
   race with another domain registering a counter.

   Span accumulators live in each thread's {!Trace} record, keyed by
   (request id, span name): concurrent connection-handler systhreads
   never mutate one accumulator concurrently, samples stay attributable
   to the request that produced them, and a registered thread records
   without a lock.  [spans] and [distributions] merge the per-thread
   tables — across requests — at read time; like the trace rings,
   readers must run after worker domains and handler threads have
   quiesced. *)
let on = Atomic.make false
let lock = Mutex.create ()
let counter_tbl : (string, int Atomic.t) Hashtbl.t Atomic.t =
  Atomic.make (Hashtbl.create 16)

let enable b = Atomic.set on b
let enabled () = Atomic.get on

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let counter_cell name =
  match Hashtbl.find_opt (Atomic.get counter_tbl) name with
  | Some c -> c
  | None ->
    with_lock (fun () ->
        let tbl = Atomic.get counter_tbl in
        match Hashtbl.find_opt tbl name with
        | Some c -> c
        | None ->
          let c = Atomic.make 0 in
          let tbl = Hashtbl.copy tbl in
          Hashtbl.add tbl name c;
          Atomic.set counter_tbl tbl;
          c)

let incr ?(by = 1) name =
  if Atomic.get on then ignore (Atomic.fetch_and_add (counter_cell name) by)

let counter name =
  match Hashtbl.find_opt (Atomic.get counter_tbl) name with
  | Some c -> Atomic.get c
  | None -> 0

let record_span name seconds =
  if Atomic.get on then begin
    let a = Trace.span_acc name in
    a.Trace.total_s <- a.total_s +. seconds;
    a.count <- a.count + 1;
    if seconds > a.max_s then a.max_s <- seconds;
    (if a.n_samples = Array.length a.samples then begin
       let grown = Array.make (2 * a.n_samples) 0.0 in
       Array.blit a.samples 0 grown 0 a.n_samples;
       a.samples <- grown
     end);
    a.samples.(a.n_samples) <- seconds;
    a.n_samples <- a.n_samples + 1
  end

(* The thunk always runs; with both telemetry and tracing off the only
   cost is two atomic loads.  When armed, the duration feeds the global
   span (metrics), the ambient point context (ledger) and the event
   ring (trace) as applicable. *)
let time name f =
  if not (Atomic.get on || Trace.active ()) then f ()
  else begin
    Trace.begin_span name;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let dt = now () -. t0 in
        record_span name dt;
        Trace.note_stage name dt;
        Trace.end_span name)
      f
  end

(* Merge the per-thread accumulators under a caller-chosen key projection:
   [fst] of the (request, name) acc key for per-request views, [snd]
   for the classic per-name views (requests collapsed). *)
let merged_accs_by key_of =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun accs ->
      Hashtbl.iter
        (fun key (a : Trace.acc) ->
          let key = key_of key in
          let prev_span, prev_samples =
            Option.value
              (Hashtbl.find_opt tbl key)
              ~default:({ total_s = 0.0; count = 0; max_s = 0.0 }, [])
          in
          let samples =
            List.init a.n_samples (fun i -> a.samples.(i)) @ prev_samples
          in
          Hashtbl.replace tbl key
            ( {
                total_s = prev_span.total_s +. a.total_s;
                count = prev_span.count + a.count;
                max_s = Float.max prev_span.max_s a.max_s;
              },
              samples ))
        accs)
    (Trace.span_tables ());
  tbl

let merged_accs () = merged_accs_by snd

let request_spans () =
  Hashtbl.fold (fun k (s, _) acc -> (k, s) :: acc) (merged_accs_by Fun.id) []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let sorted_bindings tbl value =
  Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let spans () = sorted_bindings (merged_accs ()) fst

let span_count name =
  match Hashtbl.find_opt (merged_accs ()) name with
  | Some (s, _) -> s.count
  | None -> 0

let span_samples name =
  match Hashtbl.find_opt (merged_accs ()) name with
  | Some (_, samples) -> samples
  | None -> []

let distributions () =
  sorted_bindings (merged_accs ()) (fun (_, samples) ->
      {
        p50_s = Stats.percentile 50.0 samples;
        p90_s = Stats.percentile 90.0 samples;
        p99_s = Stats.percentile 99.0 samples;
      })

let counters () =
  Hashtbl.fold (fun k v acc -> (k, Atomic.get v) :: acc) (Atomic.get counter_tbl) []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset () =
  with_lock (fun () -> Atomic.set counter_tbl (Hashtbl.create 16));
  List.iter Hashtbl.reset (Trace.span_tables ())

let to_json () =
  let merged = merged_accs () in
  let span_json ((name, (s, samples)) : string * (span * float list)) =
    let dist =
      match samples with
      | [] -> []
      | _ ->
        [
          ("p50_s", Json.Float (Stats.percentile 50.0 samples));
          ("p90_s", Json.Float (Stats.percentile 90.0 samples));
          ("p99_s", Json.Float (Stats.percentile 99.0 samples));
        ]
    in
    ( name,
      Json.Obj
        ([ ("total_s", Json.Float s.total_s); ("count", Json.Int s.count);
           ("max_s", Json.Float s.max_s) ]
        @ dist) )
  in
  Json.Obj
    [
      ("spans", Json.Obj (List.map span_json (sorted_bindings merged Fun.id)));
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters ())));
    ]

let write_json ~path json =
  Json.write_file ~prefix:".metrics" ~path (Json.to_string json ^ "\n")
