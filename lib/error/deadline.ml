(* Ambient per-request deadlines and cooperative cancellation.

   A token is immutable except for its cancellation flag, so one token
   can be shared across every thread and pool-worker domain touching a
   request.  The token's data type and the per-thread stack that
   installs it live in the calling thread's [Trace] record — the one
   (domain, thread)-keyed registry, found without a lock once the
   thread is registered.  The stack makes scopes nest with
   min-deadline / any-cancel semantics (a per-point [--timeout] inside
   a per-request deadline honors whichever is tighter), and it is part
   of the request scope [Pool] carries to worker domains. *)

module Trace = Ncdrf_telemetry.Trace

(* Monotonic, not wall time: a long-running daemon's deadlines must not
   fire (or fail to fire) because NTP stepped the system clock. *)
let now () = Ncdrf_telemetry.Telemetry.now ()

type token = Trace.token

let make ?timeout_s () =
  {
    Trace.deadline = Option.map (fun s -> now () +. s) timeout_s;
    timeout_s;
    canceled = Atomic.make false;
    cancel_reason = "canceled";
  }

let cancel ?(reason = "canceled") (t : token) =
  t.cancel_reason <- reason;
  Atomic.set t.canceled true

let canceled (t : token) = Atomic.get t.canceled

let expired (t : token) =
  match t.deadline with None -> false | Some d -> now () > d

let time_left (t : token) =
  match t.deadline with None -> infinity | Some d -> d -. now ()

let active () = Trace.tokens () <> []
let with_token tok f = Trace.with_tokens (tok :: Trace.tokens ()) f

let with_timeout ?timeout_s f =
  match timeout_s with
  | None -> f ()
  | Some _ -> with_token (make ?timeout_s ()) f

let violation (tok : token) =
  if Atomic.get tok.canceled then
    Some (Error.Canceled, tok.cancel_reason)
  else if expired tok then
    let msg =
      match tok.timeout_s with
      | Some s -> Printf.sprintf "deadline exceeded (budget %.3fs)" s
      | None -> "deadline exceeded"
    in
    Some (Error.Deadline_exceeded, msg)
  else None

let check ~stage =
  match Trace.tokens () with
  | [] -> ()
  | stack ->
    (match List.find_map violation stack with
     | None -> ()
     | Some (category, message) -> Error.error ~stage category message)
