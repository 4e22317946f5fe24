module Serial = Entangle_ir.Serial
module Refine = Entangle.Refine
module Config = Entangle.Config
module F = Entangle_failpoint.Failpoint
module P = Protocol

(* --- failpoints --------------------------------------------------------- *)

(* The chaos gate arms these to prove the daemon survives accept-time
   EMFILE, torn replies and handler crashes — not just assert it. *)
let fp_accept =
  F.declare ~doc:"accept(2): fires as an accept failure the loop survives"
    "serve.accept"

let fp_frame_write =
  F.declare
    ~doc:
      "before writing a response frame: fires by writing half the frame then \
       failing the connection (a torn write the client must retry through)"
    "serve.frame.write"

(* Per-request-kind dispatch failpoints (serve.dispatch.check, ...):
   chaos scenarios arm exactly the request kind their byzantine client
   sends, so well-behaved clients' verdicts stay byte-identical. *)
let fp_dispatch_of =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun name ->
      Hashtbl.replace tbl name
        (F.declare
           ~doc:("dispatch of a " ^ name ^ " request: fires as a handler crash")
           ("serve.dispatch." ^ name)))
    P.request_names;
  fun req -> Hashtbl.find tbl (P.request_name req)

(* --- the server --------------------------------------------------------- *)

type counters = {
  accepted : int Atomic.t;
  served : int Atomic.t;
  rejected_busy : int Atomic.t;
  timed_out : int Atomic.t;
  drained : int Atomic.t;
  accept_failures : int Atomic.t;
}

type t = {
  name : string;
  config : Config.t;
  cache : Entangle_cache.Cache.t option;
  max_clients : int;
  io_timeout_s : float;
  idle_timeout_s : float option;
  request_deadline_s : float option;
  drain_timeout_s : float;
  path : string;
  listener : Unix.file_descr;
  lock_fd : Unix.file_descr;
  wake_r : Unix.file_descr;  (** drain pipe: readable = draining *)
  wake_w : Unix.file_descr;
  counters : counters;
  active : int Atomic.t;
  draining : bool Atomic.t;
}

type error = In_use of { socket : string } | Failed of string

let error_message = function
  | In_use { socket } ->
      Fmt.str "socket %s: another server is already serving" socket
  | Failed m -> m

let socket t = t.path
let draining t = Atomic.get t.draining

let stats t =
  {
    P.accepted = Atomic.get t.counters.accepted;
    active = Atomic.get t.active;
    served = Atomic.get t.counters.served;
    rejected_busy = Atomic.get t.counters.rejected_busy;
    timed_out = Atomic.get t.counters.timed_out;
    drained = Atomic.get t.counters.drained;
    accept_failures = Atomic.get t.counters.accept_failures;
    max_clients = t.max_clients;
  }

(* --- socket ownership --------------------------------------------------- *)

(* Probing tells a live daemon from a stale socket file, but two
   daemons probing concurrently both see "stale" and race to unlink
   and rebind. Ownership is therefore an fcntl lock on [path ^ ".lock"]
   taken before touching the socket: the kernel picks exactly one
   winner across processes. fcntl locks do not exclude within one
   process, so an in-process registry covers two servers created in
   one test binary. The lock file is never unlinked — removing it
   would reopen the unlink/reopen race it exists to close. *)

let owners_mutex = Mutex.create ()
let owners : string list ref = ref []
let lock_path path = path ^ ".lock"

let acquire_lock path =
  Mutex.lock owners_mutex;
  let result =
    if List.mem path !owners then Error (In_use { socket = path })
    else
      match
        Unix.openfile (lock_path path) [ Unix.O_RDWR; Unix.O_CREAT ] 0o600
      with
      | exception Unix.Unix_error (e, _, _) ->
          Error
            (Failed
               (Fmt.str "lock %s: %s" (lock_path path) (Unix.error_message e)))
      | fd -> (
          match Unix.lockf fd Unix.F_TLOCK 0 with
          | () ->
              owners := path :: !owners;
              Ok fd
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              Error (In_use { socket = path })
          | exception Unix.Unix_error (e, _, _) ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              Error
                (Failed
                   (Fmt.str "lock %s: %s" (lock_path path)
                      (Unix.error_message e))))
  in
  Mutex.unlock owners_mutex;
  result

let release_lock path fd =
  Mutex.lock owners_mutex;
  owners := List.filter (fun p -> not (String.equal p path)) !owners;
  (* Closing the descriptor drops the fcntl lock. *)
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Mutex.unlock owners_mutex

(* Under the lock a live listener can only predate the lock protocol
   (or be a foreign socket); probe by connecting, as before. *)
let socket_in_use path =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> false
  | probe -> (
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () ->
          Unix.close probe;
          true
      | exception Unix.Unix_error _ ->
          Unix.close probe;
          false)

let create ?(name = "entangle-serve") ?(config = Config.default) ?cache
    ?(max_clients = 64) ?(io_timeout_s = 30.) ?idle_timeout_s
    ?request_deadline_s ?(drain_timeout_s = 5.) ~socket:path () =
  let config =
    match cache with None -> config | Some c -> Config.with_cache (Some c) config
  in
  let cache = match cache with Some _ as c -> c | None -> config.Config.cache in
  match acquire_lock path with
  | Error _ as e -> e
  | Ok lock_fd ->
      let fail e =
        release_lock path lock_fd;
        Error e
      in
      if Sys.file_exists path && socket_in_use path then
        fail (In_use { socket = path })
      else begin
        (try if Sys.file_exists path then Sys.remove path
         with Sys_error _ -> ());
        match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
        | exception Unix.Unix_error (e, _, _) ->
            fail (Failed (Fmt.str "socket: %s" (Unix.error_message e)))
        | listener -> (
            match
              Unix.bind listener (Unix.ADDR_UNIX path);
              Unix.listen listener 64
            with
            | exception Unix.Unix_error (e, _, _) ->
                (try Unix.close listener with Unix.Unix_error _ -> ());
                fail
                  (Failed (Fmt.str "bind %s: %s" path (Unix.error_message e)))
            | () ->
                let wake_r, wake_w = Unix.pipe ~cloexec:true () in
                Ok
                  {
                    name;
                    config;
                    cache;
                    max_clients;
                    io_timeout_s;
                    idle_timeout_s;
                    request_deadline_s;
                    drain_timeout_s;
                    path;
                    listener;
                    lock_fd;
                    wake_r;
                    wake_w;
                    counters =
                      {
                        accepted = Atomic.make 0;
                        served = Atomic.make 0;
                        rejected_busy = Atomic.make 0;
                        timed_out = Atomic.make 0;
                        drained = Atomic.make 0;
                        accept_failures = Atomic.make 0;
                      };
                    active = Atomic.make 0;
                    draining = Atomic.make false;
                  })
      end

(* Flip to draining and wake the accept loop and every idle reader.
   The pipe is never drained: once written, readability is a
   level-triggered "closing" flag every select observes. *)
let begin_drain t =
  if not (Atomic.exchange t.draining true) then
    try ignore (Unix.write_substring t.wake_w "x" 0 1)
    with Unix.Unix_error _ -> ()

(* --- request handlers --------------------------------------------------- *)

let verdict_tag = function
  | Refine.Unmapped _ -> "unmapped"
  | Refine.Inconclusive _ -> "inconclusive"
  | Refine.Internal _ -> "internal"

let bad_request fmt = Fmt.kstr (fun m -> Error (P.Bad_request, m)) fmt

let rules_for_family = function
  | None -> Ok None
  | Some f -> (
      match Entangle_lemmas.Registry.family_of_string f with
      | Some fam -> Ok (Some (Entangle_lemmas.Registry.rules_for_model fam))
      | None -> bad_request "unknown model family %S" f)

let check_config t (o : P.check_options) =
  let c =
    t.config
    |> Config.with_cache_namespace (Option.value o.P.namespace ~default:"")
    |> Config.with_keep_going o.P.keep_going
  in
  (* The per-request wall budget reuses Runner.budget semantics: the
     deadline is checked cooperatively inside the check and trips to
     an inconclusive verdict, never a hang. A client-supplied deadline
     can only tighten the server's. *)
  match t.request_deadline_s with
  | None -> c
  | Some d ->
      let d =
        match c.Config.check_deadline_s with
        | Some existing -> Float.min existing d
        | None -> d
      in
      Config.with_check_deadline (Some d) c

(* Parse a check request, run the check, and answer a failed check,
   a malformed request or a refused input; [on_success] answers a
   check that refines. *)
let run_check t (o : P.check_options) gs_sexp gd_sexp rel_sexp ~on_success =
  let ( let* ) = Result.bind in
  let parsed =
    let parse what = function
      | Ok v -> Ok v
      | Error e -> bad_request "%s: %s" what e
    in
    let* rules = rules_for_family o.P.family in
    let* gs = parse "gs" (Serial.graph_of_sexp gs_sexp) in
    let* gd = parse "gd" (Serial.graph_of_sexp gd_sexp) in
    let* input_relation =
      parse "relation" (Entangle.Relation_io.of_sexp ~gs ~gd rel_sexp)
    in
    Ok (rules, gs, gd, input_relation)
  in
  match parsed with
  | Error (code, message) -> P.Error_reply { code; message }
  | Ok (rules, gs, gd, input_relation) -> (
      let config = check_config t o in
      match Refine.check ~config ?rules ~gs ~gd ~input_relation () with
      | Ok success -> on_success ~gs ~input_relation success
      | Error failure ->
          P.Checked
            {
              P.exit_code = Refine.exit_code (Error failure);
              verdict = verdict_tag failure.Refine.verdict;
              report = Entangle.Report.failure_to_string gs failure;
              output_relation = None;
              stats = failure.Refine.stats;
            }
      | exception Invalid_argument m ->
          P.Error_reply { code = P.Bad_request; message = m })

let handle_check t o gs_sexp gd_sexp rel_sexp =
  run_check t o gs_sexp gd_sexp rel_sexp
    ~on_success:(fun ~gs ~input_relation:_ success ->
      P.Checked
        {
          P.exit_code = 0;
          verdict = "refines";
          report = Entangle.Report.success_to_string gs success;
          output_relation =
            Some (Entangle.Relation_io.to_sexp success.Refine.output_relation);
          stats = success.Refine.stats;
        })

let handle_cache t f =
  match t.cache with
  | None ->
      P.Error_reply { code = P.Bad_request; message = P.uncached_message }
  | Some cache -> f cache

(* cert-fetch: run the check like [handle_check]; when it refines,
   package the result as a portable bundle the client re-verifies with
   the minimal verifier. A check that does not refine still answers
   the ordinary result body, so the caller gets the verdict either
   way. *)
let handle_cert_fetch t o gs_sexp gd_sexp rel_sexp env =
  run_check t o gs_sexp gd_sexp rel_sexp
    ~on_success:(fun ~gs:_ ~input_relation success ->
      match
        Entangle.Cert_export.bundle ~producer:("entangle-serve/" ^ t.name)
          ~env:(Entangle_ir.Interp.env_of_list env)
          ~input_relation success
      with
      | Ok b -> P.Cert_bundle { bundle = Entangle_certexport.Bundle.to_string b }
      | Error m ->
          P.Error_reply
            {
              code = P.Server_internal;
              message = "certificate export failed: " ^ m;
            })

(* cert-push: the server is the independent verifier — replay,
   cleanliness and shape inference only; no e-graph is consulted and
   the daemon's warm cache is never trusted for someone else's
   bundle. *)
let handle_cert_push bundle =
  match Entangle_certexport.Verify.check_string bundle with
  | Ok report ->
      P.Cert_verdict_reply
        {
          P.accepted = true;
          cert_id = Some report.Entangle_certexport.Verify.id;
          cert_code = None;
          cert_detail =
            Fmt.str "verified: %d operators, %d outputs, %d expressions replayed"
              report.Entangle_certexport.Verify.operators
              report.Entangle_certexport.Verify.outputs_checked
              report.Entangle_certexport.Verify.exprs_replayed;
        }
  | Error e ->
      P.Cert_verdict_reply
        {
          P.accepted = false;
          cert_id = None;
          cert_code =
            Some
              (Entangle_certexport.Cert_error.code_string
                 e.Entangle_certexport.Cert_error.code);
          cert_detail = e.Entangle_certexport.Cert_error.detail;
        }

let handle_request t = function
  | P.Ping -> P.Pong
  | P.Describe -> P.Described (P.describe_json ~server:t.name)
  | P.Server_stats -> P.Server_stats_reply (stats t)
  | P.Shutdown ->
      begin_drain t;
      P.Bye
  | P.Cache_clear ->
      handle_cache t (fun c -> P.Cache_cleared (Entangle_cache.Cache.clear c))
  | P.Cache_stats ->
      handle_cache t (fun c ->
          P.Cache_stats_reply
            {
              dir = Entangle_cache.Cache.dir c;
              stats = Entangle_cache.Cache.stats c;
            })
  | P.Check { options; gs; gd; relation } -> handle_check t options gs gd relation
  | P.Cert_fetch { options; gs; gd; relation; env } ->
      handle_cert_fetch t options gs gd relation env
  | P.Cert_push { bundle } -> handle_cert_push bundle
  | P.Check_batch _ ->
      (* handled by the streaming path in [serve_connection] *)
      P.Error_reply
        { code = P.Server_internal; message = "check-batch reached handle_request" }

(* --- the connection loop ------------------------------------------------ *)

let io_deadline t = Unix.gettimeofday () +. t.io_timeout_s

(* Write one response frame under the I/O deadline. When the
   serve.frame.write failpoint fires, deliberately emit half the
   encoded frame and fail the connection — the torn write clients must
   survive by retrying. *)
let write_response t io ~id resp =
  let payload = P.response_to_string ~id resp in
  let deadline = Some (io_deadline t) in
  match F.hit fp_frame_write with
  | () -> (
      match P.Io.write_frame ?deadline io payload with
      | Ok () -> true
      | Error P.Io.Timeout ->
          (* backpressure: the peer stopped reading *)
          Atomic.incr t.counters.timed_out;
          false
      | Error _ -> false)
  | exception F.Injected _ ->
      let encoded = P.encode_frame payload in
      let half = String.length encoded / 2 in
      ignore (P.Io.write_raw ?deadline io (String.sub encoded 0 half));
      false

let handshake t io =
  let deadline = Some (io_deadline t) in
  let reject r =
    ignore (P.Io.write_frame ?deadline io (P.welcome_to_string r))
  in
  match P.Io.read_frame ?deadline io with
  | Error P.Io.Timeout ->
      Atomic.incr t.counters.timed_out;
      Error "handshake timed out"
  | Error e -> Error (P.Io.error_message e)
  | Ok payload -> (
      match P.hello_of_string payload with
      | Error e ->
          (* Not even a hello: answer with a rejection so the peer
             learns why, then drop the connection. *)
          reject
            (P.Rejected
               {
                 expected = P.protocol_version;
                 got = -1;
                 message = "malformed hello: " ^ e;
               });
          Error ("malformed hello: " ^ e)
      | Ok h when h.P.protocol <> P.protocol_version ->
          reject
            (P.Rejected
               {
                 expected = P.protocol_version;
                 got = h.P.protocol;
                 message =
                   Fmt.str
                     "protocol version mismatch: server speaks %d, client \
                      sent %d; upgrade the older side"
                     P.protocol_version h.P.protocol;
               });
          Error "protocol version mismatch"
      | Ok _ ->
          ignore
            (P.Io.write_frame ?deadline io
               (P.welcome_to_string
                  (P.Welcome { protocol = P.protocol_version; server = t.name })));
          Ok ())

let dispatch t io ~id req =
  let sink = t.config.Config.trace in
  let args = [ ("id", Entangle_trace.Event.Int id) ] in
  let name = P.request_name req in
  Entangle_trace.Sink.span_begin sink ~args ~cat:"serve" name;
  let finally () = Entangle_trace.Sink.span_end sink ~args ~cat:"serve" name in
  Fun.protect ~finally (fun () ->
      match F.guard (fp_dispatch_of req) (fun () -> req) with
      | exception exn ->
          write_response t io ~id
            (P.Error_reply
               { code = P.Server_internal; message = Printexc.to_string exn })
      | P.Check_batch { options; instances } ->
          (* Streamed: each instance's verdict goes out as soon as it
             is computed, in index order, then a terminator. Faults are
             contained per instance. *)
          let count = List.length instances in
          let ok = ref true in
          List.iteri
            (fun index (inst : P.batch_instance) ->
              if !ok then begin
                let body =
                  match
                    handle_check t options inst.P.gs inst.P.gd inst.P.relation
                  with
                  | body -> body
                  | exception exn ->
                      P.Error_reply
                        {
                          code = P.Server_internal;
                          message = Printexc.to_string exn;
                        }
                in
                ok := write_response t io ~id (P.Batch_item { index; body })
              end)
            instances;
          if !ok then write_response t io ~id (P.Batch_done { count })
          else false
      | req ->
          let reply =
            match handle_request t req with
            | reply -> reply
            | exception exn ->
                P.Error_reply
                  { code = P.Server_internal; message = Printexc.to_string exn }
          in
          write_response t io ~id reply)

let serve_connection t fd =
  let io = P.Io.of_fd ~cancel:t.wake_r fd in
  match handshake t io with
  | Error _ -> ()
  | Ok () ->
      let rec loop () =
        if Atomic.get t.draining then ()
        else
          let idle =
            Option.map
              (fun s -> Unix.gettimeofday () +. s)
              t.idle_timeout_s
          in
          (* Two deadlines: the idle wait for the next request is
             unbounded by default (editors keep connections open), but
             once the first byte arrives the whole frame must land
             within the I/O timeout — a slow-loris write costs one
             timeout, not a thread. *)
          match P.Io.wait_input ?deadline:idle io with
          | Error _ -> () (* drain, idle timeout, or peer gone *)
          | Ok () -> (
              match P.Io.read_frame ~deadline:(io_deadline t) io with
              | Error P.Io.Timeout ->
                  Atomic.incr t.counters.timed_out
              | Error _ -> () (* hung up, torn frame, or garbage framing *)
              | Ok payload ->
                  let continue =
                    match P.request_of_string payload with
                    | Error e ->
                        write_response t io ~id:0
                          (P.Error_reply { code = P.Bad_request; message = e })
                    | Ok (id, req) -> dispatch t io ~id req
                  in
                  Atomic.incr t.counters.served;
                  if continue then loop ())
      in
      loop ()

let handle_client t fd =
  let finally () =
    if Atomic.get t.draining then Atomic.incr t.counters.drained;
    Atomic.decr t.active;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally (fun () ->
      if Atomic.fetch_and_add t.active 1 >= t.max_clients then begin
        (* Admission control: answer with a structured, retryable busy
           frame (without waiting for the hello) and close. The write
           deadline is short so a stalled rejected client cannot pin
           the handler. *)
        Atomic.incr t.counters.rejected_busy;
        let io = P.Io.of_fd fd in
        let deadline =
          Some (Unix.gettimeofday () +. Float.min 1.0 t.io_timeout_s)
        in
        ignore
          (P.Io.write_frame ?deadline io
             (P.welcome_to_string
                (P.Busy
                   {
                     max_clients = t.max_clients;
                     message =
                       Fmt.str
                         "server is at its %d-client admission limit; retry \
                          with backoff"
                         t.max_clients;
                   })))
      end
      else serve_connection t fd)

(* --- accept loop and drain ---------------------------------------------- *)

let run ?(signals = false) t =
  let previous_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let previous_signals =
    if signals then
      let drain _ = begin_drain t in
      Some
        ( Sys.signal Sys.sigterm (Sys.Signal_handle drain),
          Sys.signal Sys.sigint (Sys.Signal_handle drain) )
    else None
  in
  let threads = ref [] in
  let threads_mutex = Mutex.create () in
  let finally () =
    (match previous_signals with
    | Some (term, int_) ->
        Sys.set_signal Sys.sigterm term;
        Sys.set_signal Sys.sigint int_
    | None -> ());
    Sys.set_signal Sys.sigpipe previous_pipe;
    (try Unix.close t.listener with Unix.Unix_error _ -> ());
    (try Sys.remove t.path with Sys_error _ -> ());
    (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
    (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
    release_lock t.path t.lock_fd
  in
  Fun.protect ~finally (fun () ->
      let spawn fd =
        let th = Thread.create (fun () -> handle_client t fd) () in
        Mutex.lock threads_mutex;
        threads := th :: !threads;
        Mutex.unlock threads_mutex
      in
      let rec accept_loop () =
        if Atomic.get t.draining then ()
        else
          match Unix.select [ t.listener; t.wake_r ] [] [] (-1.) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
          | rds, _, _ ->
              if Atomic.get t.draining then ()
              else if List.mem t.listener rds then (
                match F.guard fp_accept (fun () -> Unix.accept t.listener) with
                | exception F.Injected _ ->
                    (* an injected EMFILE-style accept failure: count
                       it and keep serving *)
                    Atomic.incr t.counters.accept_failures;
                    accept_loop ()
                | exception
                    Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
                    (* out of descriptors: shed load briefly instead
                       of spinning or dying *)
                    Atomic.incr t.counters.accept_failures;
                    Thread.delay 0.05;
                    accept_loop ()
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
                | fd, _ ->
                    Atomic.incr t.counters.accepted;
                    spawn fd;
                    accept_loop ())
              else accept_loop ()
      in
      accept_loop ();
      (* Drain: stop accepting (done — the loop exited), wake idle
         readers, and give in-flight requests until the drain timeout
         to finish. Requests bounded by a request deadline cancel into
         inconclusive verdicts within it (Runner.budget semantics). *)
      begin_drain t;
      let deadline = Unix.gettimeofday () +. t.drain_timeout_s in
      let rec wait_active () =
        if Atomic.get t.active = 0 then true
        else if Unix.gettimeofday () > deadline then false
        else begin
          Thread.delay 0.005;
          wait_active ()
        end
      in
      if wait_active () then begin
        (* every handler has decremented [active]; joining is now
           bounded and proves no thread leaked *)
        Mutex.lock threads_mutex;
        let ths = !threads in
        threads := [];
        Mutex.unlock threads_mutex;
        List.iter Thread.join ths
      end)
