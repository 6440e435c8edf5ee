(** One run's process-wide setup and teardown.

    [ncdrf suite], [ncdrf bench] and the serving daemon all run the
    same way: arm the fault spec, open the persistent store, switch the
    artifact cache and the three observability sinks (metrics, trace,
    ledger) on or off from their flags, and create the worker pool.
    When the work returns they publish the metrics, trace and ledger
    after the pool has quiesced, then shut the pool down and disarm. *)

type opts = {
  jobs : int;  (** worker domains; values below 1 mean serial *)
  inject : Ncdrf_fault.Fault.spec option;  (** fault to arm for the run *)
  no_cache : bool;  (** disable the in-memory artifact cache *)
  cache_dir : string option;  (** open the persistent store here *)
  cache_max_mb : int;  (** store size budget in MB; 0 = unlimited *)
  metrics : string option;  (** metrics JSON destination *)
  trace : string option;  (** Chrome trace destination *)
  ledger : string option;  (** JSONL run ledger destination *)
}

(** Default-jobs pool, nothing armed, cache on, no store, no outputs. *)
val default_opts : opts

(** Raised by {!run} when the setup itself fails (the store directory
    cannot be created or opened); the payload is a one-line message
    naming the flag. *)
exception Setup_failed of string

(** [run ~label ~metrics opts f] sets the run up, evaluates [f pool],
    shuts the pool down and then writes [metrics result] to
    [opts.metrics], followed by the trace and the ledger; with
    [announce] (default true) each written path is printed as a
    [[metrics: PATH]] style line on stdout.  [label] names the run's
    ledger records.  If [f] raises, nothing is published; the pool is
    shut down and the fault spec disarmed either way. *)
val run :
  ?announce:bool ->
  metrics:('a -> Ncdrf_telemetry.Json.t) ->
  label:string ->
  opts ->
  (Ncdrf_parallel.Pool.t -> 'a) ->
  'a
