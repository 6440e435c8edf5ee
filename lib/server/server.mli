(** The [ncdrf serve] daemon: a fault-contained compile service over a
    Unix-domain socket.

    One JSONL request per line (see {!Protocol}); scheduling and suite
    requests are admitted through a bounded queue in front of
    [max_inflight] concurrent execution slots — safe because trace,
    span and deadline state lives in one per-(domain, thread) record
    and a request's scope (its id via
    [Ncdrf_telemetry.Trace.with_request] and its
    {!Ncdrf_error.Deadline} token) follows its work onto the pool
    workers it submits to.  Overload is answered with a typed
    [Overloaded] response carrying a retry hint, never an unbounded
    queue; per-request deadlines and drain cancellation reach pool
    workers through that scope; any failure a request provokes — parse errors, infeasible
    schedules, injected faults, expiry — becomes a typed [Failed]
    response and never kills the daemon.  On SIGTERM/SIGINT the daemon
    stops accepting, lets in-flight work finish within a grace window,
    cancels the rest, and atomically publishes its metrics, trace and
    ledger before exiting. *)

type opts = {
  socket_path : string;
  max_inflight : int;  (** concurrent request execution slots *)
  queue_bound : int;  (** admission queue slots; beyond this, shed *)
  default_timeout_s : float option;
      (** deadline for requests that do not carry their own *)
  drain_grace_s : float;
      (** seconds to let in-flight work finish before cancelling *)
  session : Ncdrf_core.Session.opts;
      (** the run setup shared with the batch drivers: pool size shared
          by all requests, fault spec, the persistent store opened at
          startup (so the daemon cold-starts warm from prior processes'
          work), and the metrics, trace and ledger published on drain *)
}

(** Defaults: 4 inflight slots, queue bound 8, no default deadline,
    5 s drain grace, {!Ncdrf_core.Session.default_opts}. *)
val default_opts : socket_path:string -> opts

(** [run opts] serves until stopped, then drains and returns the
    process exit code (0 on a clean drain).  [stop] supplies the stop
    flag (polled every 0.2 s) — tests flip it from another thread;
    when [handle_signals] (default true), SIGTERM/SIGINT set it and
    SIGPIPE is ignored.  Raises {!Ncdrf_error.Error.Error} if the
    socket path is already being served and
    {!Ncdrf_core.Session.Setup_failed} if the store cannot be opened. *)
val run : ?stop:bool Atomic.t -> ?handle_signals:bool -> opts -> int
