external now_ns : unit -> int64 = "ncdrf_monotonic_ns"

type event = {
  name : string;
  phase : char;
  ts_ns : int64;
  track : int;
  request : string;
  loop : string;
  config : string;
  ii : int;
}

type point = {
  loop : string;
  config : string;
  fp : string;
  mutable ii : int;
  mutable mii : int;
  mutable clusters : int;
  mutable rounds : int;
  mutable spilled : int;
  mutable requirement : int;
  mutable maxlive : int;
  mutable spill_full : int;
  mutable spill_incremental : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable disk_hits : int;
  mutable disk_misses : int;
  mutable stages : (string * float) list;
  mutable error : string option;
}

type acc = {
  mutable total_s : float;
  mutable count : int;
  mutable max_s : float;
  mutable samples : float array;
  mutable n_samples : int;
}

type token = {
  deadline : float option;
  timeout_s : float option;
  canceled : bool Atomic.t;
  mutable cancel_reason : string;
}

(* One record per (domain, thread): the trace ring, the point context,
   the request scope (id + deadline tokens) and the span accumulators.
   The ring is lazily grown up to the capacity, then wraps (oldest
   events overwritten); [emitted] is the lifetime event count, so
   [emitted - Array.length ring] events have been dropped once the ring
   is saturated.  A record is only ever written by its owning thread;
   readers run after workers and connection handlers have quiesced. *)
type record = {
  owner : int;  (* Thread.id of the owning thread *)
  mutable track : int;  (* -1 until the thread first touches the trace *)
  mutable ring : event array;
  mutable emitted : int;
  mutable ctx : point option;
  mutable request : string;
  mutable tokens : token list;  (* innermost first *)
  spans : (string * string, acc) Hashtbl.t;  (* (request id, span name) *)
}

let events_on = Atomic.make false
let context_demanded = Atomic.make false
let ring_capacity = Atomic.make 65536

(* The registry is keyed by (domain id, thread id): connection-handler
   systhreads in the serving daemon all run on domain 0, while pool
   workers are separate domains — the composite key isolates both.
   Keys are never reused (domain and thread ids are monotonic), so a
   record, once registered, is owned by exactly one thread forever.

   Lookups take the lock only on a miss: each domain caches the last
   record it handed out, so a pool worker (one thread per domain) finds
   its record lock-free after registering, and the daemon's domain 0
   locks only when a different connection thread ran last. *)
let registry_lock = Mutex.create ()
let table : (int * int, record) Hashtbl.t = Hashtbl.create 16
let records : record list ref = ref []

let fresh owner =
  { owner; track = -1; ring = [||]; emitted = 0; ctx = None; request = ""; tokens = [];
    spans = Hashtbl.create 16 }

let last_record = Domain.DLS.new_key (fun () -> fresh (-1))

let record () =
  let tid = Thread.id (Thread.self ()) in
  let r = Domain.DLS.get last_record in
  if r.owner = tid then r
  else begin
    let k = ((Domain.self () :> int), tid) in
    Mutex.lock registry_lock;
    let r =
      match Hashtbl.find_opt table k with
      | Some r -> r
      | None ->
        let r = fresh tid in
        Hashtbl.add table k r;
        records := r :: !records;
        r
    in
    Mutex.unlock registry_lock;
    Domain.DLS.set last_record r;
    r
  end

(* Track assignment happens when a thread first touches the trace, not
   when it registers (span and deadline bookkeeping register too): the
   first such thread of a domain gets the domain id (so batch runs keep
   their historical domain-numbered tracks, and pool workers overwrite
   theirs with the slot id via [set_track]); additional systhreads on
   an already-tracked domain — the daemon's connection handlers — get
   tracks from [aux_track_base] up, in order of first use. *)
let aux_track_base = 1000
let domain_tracked : (int, unit) Hashtbl.t = Hashtbl.create 16
let next_aux_track = ref aux_track_base

let dummy_event =
  { name = ""; phase = '?'; ts_ns = 0L; track = 0; request = ""; loop = ""; config = "";
    ii = -1 }

let my () =
  let r = record () in
  if r.track < 0 then begin
    let dom = (Domain.self () :> int) in
    Mutex.lock registry_lock;
    (if Hashtbl.mem domain_tracked dom then begin
       r.track <- !next_aux_track;
       incr next_aux_track
     end
     else begin
       Hashtbl.add domain_tracked dom ();
       r.track <- dom
     end);
    Mutex.unlock registry_lock
  end;
  r

let enable b = Atomic.set events_on b
let enabled () = Atomic.get events_on
let require_context b = Atomic.set context_demanded b
let active () = Atomic.get events_on || Atomic.get context_demanded
let set_track id = (my ()).track <- id
let set_ring_capacity n = Atomic.set ring_capacity (max 1 n)

let all_records () =
  Mutex.lock registry_lock;
  let l = !records in
  Mutex.unlock registry_lock;
  l

(* ------------------------------------------------------------------ *)
(* Request scope                                                       *)
(* ------------------------------------------------------------------ *)

let scoped r ~request ~tokens f =
  let saved_request = r.request and saved_tokens = r.tokens in
  r.request <- request;
  r.tokens <- tokens;
  Fun.protect
    ~finally:(fun () ->
      r.request <- saved_request;
      r.tokens <- saved_tokens)
    f

(* The ambient request id is installed unconditionally (not gated on
   [active]): the id must be visible to the span recorder even when
   the event trace itself is off. *)
let with_request ~id f =
  let r = my () in
  scoped r ~request:id ~tokens:r.tokens f

let current_request () = (record ()).request
let tokens () = (record ()).tokens

let with_tokens tokens f =
  let r = record () in
  scoped r ~request:r.request ~tokens f

(* Replaces (does not stack over) the running thread's scope: a pool
   job runs in its submitter's scope, whichever thread executes it. *)
let inherit_request () =
  match record () with
  | { request = ""; tokens = []; _ } -> fun f -> f ()
  | { request; tokens; _ } -> fun f -> scoped (record ()) ~request ~tokens f

(* ------------------------------------------------------------------ *)
(* Span accumulators                                                   *)
(* ------------------------------------------------------------------ *)

let span_acc name =
  let r = record () in
  let key = (r.request, name) in
  match Hashtbl.find_opt r.spans key with
  | Some a -> a
  | None ->
    let a =
      { total_s = 0.0; count = 0; max_s = 0.0; samples = Array.make 16 0.0; n_samples = 0 }
    in
    Hashtbl.add r.spans key a;
    a

let span_tables () = List.map (fun r -> r.spans) (all_records ())

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

let emit s ev =
  let cap = Atomic.get ring_capacity in
  let len = Array.length s.ring in
  (if len < cap && s.emitted >= len then begin
     (* amortized doubling toward the capacity; events seen so far are
        exactly ring[0..len-1] in emission order, so a blit preserves
        them in place *)
     let len' = min cap (max 1024 (2 * len)) in
     let ring' = Array.make len' dummy_event in
     Array.blit s.ring 0 ring' 0 len;
     s.ring <- ring'
   end);
  s.ring.(s.emitted mod Array.length s.ring) <- ev;
  s.emitted <- s.emitted + 1

let event_of s ~name ~phase =
  let loop, config, ii =
    match s.ctx with
    | Some p -> (p.loop, p.config, p.ii)
    | None -> ("", "", -1)
  in
  { name; phase; ts_ns = now_ns (); track = s.track; request = s.request; loop;
    config; ii }

let begin_span name =
  if Atomic.get events_on then begin
    let s = my () in
    emit s (event_of s ~name ~phase:'B')
  end

let end_span name =
  if Atomic.get events_on then begin
    let s = my () in
    emit s (event_of s ~name ~phase:'E')
  end

let instant name =
  if Atomic.get events_on then begin
    let s = my () in
    emit s (event_of s ~name ~phase:'i')
  end

let with_context ~loop ~config ~fp f =
  if not (active ()) then f ()
  else begin
    let s = my () in
    let saved = s.ctx in
    s.ctx <-
      Some
        {
          loop;
          config;
          fp;
          ii = -1;
          mii = -1;
          clusters = -1;
          rounds = -1;
          spilled = -1;
          requirement = -1;
          maxlive = -1;
          spill_full = -1;
          spill_incremental = -1;
          cache_hits = 0;
          cache_misses = 0;
          disk_hits = 0;
          disk_misses = 0;
          stages = [];
          error = None;
        };
    Fun.protect ~finally:(fun () -> s.ctx <- saved) f
  end

let current () = if active () then (my ()).ctx else None

let with_point f =
  if active () then
    match (my ()).ctx with
    | Some p -> f p
    | None -> ()

let set_ii ii = with_point (fun p -> p.ii <- ii)

let set_result ?mii ?ii ?clusters ?rounds ?spilled ?requirement ?maxlive ?spill_full
    ?spill_incremental () =
  with_point (fun p ->
      Option.iter (fun v -> p.mii <- v) mii;
      Option.iter (fun v -> p.ii <- v) ii;
      Option.iter (fun v -> p.clusters <- v) clusters;
      Option.iter (fun v -> p.rounds <- v) rounds;
      Option.iter (fun v -> p.spilled <- v) spilled;
      Option.iter (fun v -> p.requirement <- v) requirement;
      Option.iter (fun v -> p.maxlive <- v) maxlive;
      Option.iter (fun v -> p.spill_full <- v) spill_full;
      Option.iter (fun v -> p.spill_incremental <- v) spill_incremental)

let set_error category = with_point (fun p -> p.error <- Some category)
let note_stage name seconds = with_point (fun p -> p.stages <- (name, seconds) :: p.stages)

let note_cache ~hit =
  with_point (fun p ->
      if hit then p.cache_hits <- p.cache_hits + 1
      else p.cache_misses <- p.cache_misses + 1)

let note_disk ~hit =
  with_point (fun p ->
      if hit then p.disk_hits <- p.disk_hits + 1
      else p.disk_misses <- p.disk_misses + 1)

let record_events s =
  let len = Array.length s.ring in
  if len = 0 then []
  else begin
    let n = min s.emitted len in
    let first = s.emitted - n in
    List.init n (fun i -> s.ring.((first + i) mod len))
  end

(* Records sort by (track id, first timestamp): track ids repeat across
   pool generations (every pool numbers its workers 1..n-1), and a
   stable chronological order within one track keeps per-track event
   streams monotonic for trace viewers. *)
let events () =
  all_records ()
  |> List.map (fun s -> (s, record_events s))
  |> List.filter (fun (_, evs) -> evs <> [])
  |> List.sort (fun (a, ae) (b, be) ->
         match compare a.track b.track with
         | 0 -> Int64.compare (List.hd ae).ts_ns (List.hd be).ts_ns
         | c -> c)
  |> List.concat_map snd

let dropped () =
  List.fold_left
    (fun acc s -> acc + max 0 (s.emitted - Array.length s.ring))
    0 (all_records ())

let reset () =
  List.iter
    (fun s ->
      s.ring <- [||];
      s.emitted <- 0)
    (all_records ())

let to_chrome () =
  let evs = events () in
  let t0 =
    List.fold_left
      (fun acc e -> if Int64.compare e.ts_ns acc < 0 then e.ts_ns else acc)
      (match evs with [] -> 0L | e :: _ -> e.ts_ns)
      evs
  in
  let tids =
    List.sort_uniq compare (List.map (fun (e : event) -> e.track) evs)
  in
  let track_name tid =
    if tid >= aux_track_base then Printf.sprintf "conn-%d" (tid - aux_track_base)
    else Printf.sprintf "domain-%d" tid
  in
  let thread_meta tid =
    Json.Obj
      [
        ("name", Json.String "thread_name");
        ("ph", Json.String "M");
        ("pid", Json.Int 1);
        ("tid", Json.Int tid);
        ("args", Json.Obj [ ("name", Json.String (track_name tid)) ]);
      ]
  in
  let event_json (e : event) =
    let args =
      (if e.request = "" then [] else [ ("request", Json.String e.request) ])
      @ (if e.loop = "" then [] else [ ("loop", Json.String e.loop) ])
      @ (if e.config = "" then [] else [ ("config", Json.String e.config) ])
      @ if e.ii < 0 then [] else [ ("ii", Json.Int e.ii) ]
    in
    Json.Obj
      ([
         ("name", Json.String e.name);
         ("cat", Json.String "stage");
         ("ph", Json.String (String.make 1 e.phase));
         ("pid", Json.Int 1);
         ("tid", Json.Int e.track);
         ("ts", Json.Float (Int64.to_float (Int64.sub e.ts_ns t0) /. 1000.0));
       ]
      @ if args = [] then [] else [ ("args", Json.Obj args) ])
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List (List.map thread_meta tids @ List.map event_json evs) );
      ("displayTimeUnit", Json.String "ms");
    ]

let write_chrome ~path = Json.write_file ~prefix:".trace" ~path (Json.to_string (to_chrome ()) ^ "\n")
