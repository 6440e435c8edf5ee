(** Observability for the experiment pipeline: monotonic timers, named
    counters, per-stage spans and a JSON metrics emitter.

    Counters live in one global, domain-safe registry (atomic cells in
    a copy-on-write table: increments take no lock).  Span accumulators
    live in each thread's {!Trace} record, next to its trace ring and
    request scope, and are merged at read time, so neither pool workers
    nor the daemon's concurrent connection-handler systhreads serialize
    or trample each other; a registered thread records a span without
    taking a lock.  Samples are keyed by (ambient request id, span
    name); the classic per-name views ({!spans}, {!distributions},
    {!to_json}) collapse requests, while {!request_spans} keeps them
    apart.  Readers must run after worker domains and handler threads
    have quiesced.  Recording is gated on {!enable} (default off) so
    the hot pipeline pays one atomic load per stage when telemetry is
    unused.

    {!time} also feeds the event trace and the per-point run ledger
    when those are armed — see {!Trace} and {!Ledger}. *)

module Json = Json

(** Monotonic time in seconds since an arbitrary origin.  Differences
    are meaningful; absolute values are not. *)
val now : unit -> float

(** Monotonic time in integer nanoseconds. *)
val now_ns : unit -> int64

(** Turn recording on or off.  Disabled spans and counters cost one
    atomic load; {!time} still runs its thunk. *)
val enable : bool -> unit

val enabled : unit -> bool

(** [incr name] bumps counter [name] by [by] (default 1), creating it
    at zero on first use.  Domain-safe. *)
val incr : ?by:int -> string -> unit

(** Current value of a counter; 0 if never incremented. *)
val counter : string -> int

(** Accumulated statistics of one named span. *)
type span = {
  total_s : float;  (** summed duration across all records *)
  count : int;  (** number of records *)
  max_s : float;  (** longest single record *)
}

(** Percentiles over a span's raw samples (nearest-rank). *)
type distribution = {
  p50_s : float;
  p90_s : float;
  p99_s : float;
}

(** [time name f] runs [f ()] and, when enabled, adds its duration to
    span [name].  Exceptions propagate; the span still records.  Also
    notes the duration on the ambient {!Trace} point and emits
    begin/end trace events when those layers are armed. *)
val time : string -> (unit -> 'a) -> 'a

(** [record_span name seconds] adds one measurement directly. *)
val record_span : string -> float -> unit

(** All spans, sorted by name, merged across shards and requests. *)
val spans : unit -> (string * span) list

(** Per-(request id, span name) span statistics, sorted; the request
    id is [""] for samples recorded outside any {!Trace.with_request}.
    Lets tests and analyzers check that concurrent requests kept their
    samples apart. *)
val request_spans : unit -> ((string * string) * span) list

(** Number of records of one span; 0 if never recorded.  The compile
    cache's effectiveness criterion — one ["schedule"] record per
    (config, loop) — is asserted against this. *)
val span_count : string -> int

(** Raw sample durations of one span, unordered; [] if never
    recorded. *)
val span_samples : string -> float list

(** Per-span percentiles, sorted by name. *)
val distributions : unit -> (string * distribution) list

(** All counters, sorted by name. *)
val counters : unit -> (string * int) list

(** Clear every span and counter (the enabled flag is untouched).
    Not safe concurrently with recording. *)
val reset : unit -> unit

(** Snapshot of the registry as JSON:
    [{"spans": {name: {"total_s":..,"count":..,"max_s":..,
                       "p50_s":..,"p90_s":..,"p99_s":..}},
      "counters": {name: n}}]. *)
val to_json : unit -> Json.t

(** Write a JSON value to a file atomically (temp file + rename; the
    temp file is unlinked on any failure path). *)
val write_json : path:string -> Json.t -> unit
