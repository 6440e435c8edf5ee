module Pool = Ncdrf_parallel.Pool
module Fault = Ncdrf_fault.Fault
module Store = Ncdrf_cache.Store
module Telemetry = Ncdrf_telemetry.Telemetry
module Trace = Ncdrf_telemetry.Trace
module Ledger = Ncdrf_telemetry.Ledger

type opts = {
  jobs : int;
  inject : Fault.spec option;
  no_cache : bool;
  cache_dir : string option;
  cache_max_mb : int;
  metrics : string option;
  trace : string option;
  ledger : string option;
}

let default_opts =
  {
    jobs = Pool.default_jobs ();
    inject = None;
    no_cache = false;
    cache_dir = None;
    cache_max_mb = 0;
    metrics = None;
    trace = None;
    ledger = None;
  }

exception Setup_failed of string

let open_store ~dir ~max_mb =
  let fail fmt = Printf.ksprintf (fun s -> raise (Setup_failed s)) fmt in
  try
    Store.set_ambient (Some (Store.open_store ~max_bytes:(max_mb * 1024 * 1024) ~dir ()))
  with
  | Sys_error msg -> fail "cannot open --cache-dir: %s" msg
  | Unix.Unix_error (e, _, path) ->
    fail "cannot open --cache-dir: %s: %s" path (Unix.error_message e)

let run ?(announce = true) ~metrics ~label opts f =
  let publish what path write =
    Option.iter
      (fun path ->
        write path;
        if announce then Printf.printf "[%s: %s]\n%!" what path)
      path
  in
  Option.iter Fault.arm_spec opts.inject;
  (* Disarm only what this session armed: an in-process daemon started
     by a batch run must leave the batch run's own spec alone. *)
  let disarm () = if opts.inject <> None then Fault.disarm () in
  Fun.protect ~finally:disarm @@ fun () ->
  Option.iter (fun dir -> open_store ~dir ~max_mb:opts.cache_max_mb) opts.cache_dir;
  if opts.no_cache then Artifact.set_cache_enabled false;
  Telemetry.enable (opts.metrics <> None);
  Trace.enable (opts.trace <> None);
  Ledger.enable (opts.ledger <> None);
  Ledger.set_label label;
  let result = Pool.with_pool ~jobs:opts.jobs f in
  (* Trace rings and span shards are read only now that every worker
     domain has been joined. *)
  publish "metrics" opts.metrics (fun path -> Telemetry.write_json ~path (metrics result));
  publish "trace" opts.trace (fun path -> Trace.write_chrome ~path);
  publish "ledger" opts.ledger (fun path -> Ledger.write ~path);
  result
