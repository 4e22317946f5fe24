module P = Protocol

let ( let* ) = Result.bind

(* --- structured errors -------------------------------------------------- *)

type error_kind =
  | Refused
  | Busy
  | Rejected
  | Timed_out
  | Closed
  | Protocol_error
  | App

type error = { kind : error_kind; message : string; attempts : int }

let error_message e = e.message

let kind_name = function
  | Refused -> "refused"
  | Busy -> "busy"
  | Rejected -> "rejected"
  | Timed_out -> "timeout"
  | Closed -> "closed"
  | Protocol_error -> "protocol"
  | App -> "app"

let fail ?(kind = Protocol_error) fmt =
  Fmt.kstr (fun message -> Error { kind; message; attempts = 1 }) fmt

let err_of ?(kind = Protocol_error) message = { kind; message; attempts = 1 }

let io_error (e : P.Io.error) =
  match e with
  | P.Io.Timeout -> err_of ~kind:Timed_out "i/o timeout"
  | P.Io.Closed | P.Io.Cancelled -> err_of ~kind:Closed "connection closed"
  | P.Io.Failed m -> err_of ~kind:Protocol_error m

(* --- connections -------------------------------------------------------- *)

type t = {
  io : P.Io.t;
  timeout_s : float option;
  mutable next_id : int;
  mutable closed : bool;
}

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close (P.Io.fd t.io) with Unix.Unix_error _ -> ()
  end

let deadline t = Option.map (fun s -> Unix.gettimeofday () +. s) t.timeout_s

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let dial ?timeout_s path =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) ->
      fail ~kind:Refused "socket: %s" (Unix.error_message e)
  | fd -> (
      Unix.set_nonblock fd;
      let refused e =
        close_fd fd;
        fail ~kind:Refused "connect %s: %s" path (Unix.error_message e)
      in
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> Ok fd
      | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> (
          (* finish the non-blocking connect under the timeout *)
          match
            Unix.select [] [ fd ] [] (Option.value timeout_s ~default:(-1.))
          with
          | exception Unix.Unix_error (Unix.EINTR, _, _) | [], [], [] ->
              close_fd fd;
              fail ~kind:Timed_out "connect %s: timed out" path
          | _ -> (
              match Unix.getsockopt_error fd with
              | None -> Ok fd
              | Some e -> refused e))
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          (* Linux refuses a non-blocking unix connect with EAGAIN when
             the listener's backlog is full: the busy signal, one layer
             below the protocol. *)
          close_fd fd;
          fail ~kind:Busy "connect %s: backlog full" path
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
          close_fd fd;
          fail ~kind:Refused "connect %s: %s" path
            (Unix.error_message Unix.ECONNREFUSED)
      | exception Unix.Unix_error (e, _, _) -> refused e)

let connect ?(client = "entangle") ?timeout_s ~socket () =
  let* fd = dial ?timeout_s socket in
  let t = { io = P.Io.of_fd fd; timeout_s; next_id = 1; closed = false } in
  let give_up e =
    close t;
    Error e
  in
  let dl = deadline t in
  let welcome () =
    match P.Io.read_frame ?deadline:dl t.io with
    | Error e -> give_up (io_error e)
    | Ok payload -> (
        match P.welcome_of_string payload with
        | Error m -> give_up (err_of m)
        | Ok (P.Welcome _) -> Ok t
        | Ok (P.Rejected { message; _ }) ->
            give_up (err_of ~kind:Rejected message)
        | Ok (P.Busy { message; _ }) -> give_up (err_of ~kind:Busy message))
  in
  match
    P.Io.write_frame ?deadline:dl t.io
      (P.hello_to_string { P.protocol = P.protocol_version; client })
  with
  | Error P.Io.Closed -> (
      (* A server at its admission limit answers busy without reading
         the hello and hangs up, so the hello can hit a closed socket.
         The busy frame is still readable: report it, not the broken
         pipe. *)
      match welcome () with
      | Error { kind = Busy | Rejected; _ } as refused -> refused
      | Ok _ | Error _ -> give_up (io_error P.Io.Closed))
  | Error e -> give_up (io_error e)
  | Ok () -> welcome ()

let read_response t ~id =
  let* payload =
    Result.map_error
      (fun e ->
        close t;
        io_error e)
      (P.Io.read_frame ?deadline:(deadline t) t.io)
  in
  match P.response_of_string payload with
  | Error m ->
      close t;
      Error (err_of m)
  | Ok (got_id, resp) ->
      if got_id <> id then begin
        close t;
        fail "response id mismatch: sent %d, got %d" id got_id
      end
      else Ok resp

let send t req =
  if t.closed then Error (err_of ~kind:Closed "connection closed")
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    match
      P.Io.write_frame ?deadline:(deadline t) t.io (P.request_to_string ~id req)
    with
    | Error e ->
        close t;
        Error (io_error e)
    | Ok () -> Ok id
  end

let request t req =
  let* id = send t req in
  read_response t ~id

(* --- typed helpers ------------------------------------------------------ *)

let app message = Error (err_of ~kind:App message)

let ping t =
  let* resp = request t P.Ping in
  match resp with
  | P.Pong -> Ok ()
  | P.Error_reply { message; _ } -> app message
  | _ -> app "unexpected reply to ping"

let describe t =
  let* resp = request t P.Describe in
  match resp with
  | P.Described json -> Ok json
  | P.Error_reply { message; _ } -> app message
  | _ -> app "unexpected reply to describe"

(* The batch stream: items arrive in index order as they are computed,
   terminated by batch-done; a bare error reply fails the whole batch. *)
let check_batch t ?(options = P.default_options) ~instances () =
  let expected = List.length instances in
  let* id = send t (P.Check_batch { options; instances }) in
  let rec collect acc =
    let* resp = read_response t ~id in
    match resp with
    | P.Batch_item { index; body } ->
        if index <> List.length acc then begin
          close t;
          fail "batch stream out of order: expected %d, got %d"
            (List.length acc) index
        end
        else collect (body :: acc)
    | P.Batch_done { count } ->
        if count <> expected || List.length acc <> expected then begin
          close t;
          fail "batch stream short: %d of %d results" (List.length acc) expected
        end
        else Ok (List.rev acc)
    | P.Error_reply { message; _ } -> app message
    | _ -> app "unexpected reply in batch stream"
  in
  collect []

let cert_push t ~bundle =
  let* resp = request t (P.Cert_push { bundle }) in
  match resp with
  | P.Cert_verdict_reply v -> Ok v
  | P.Error_reply { message; _ } -> app message
  | _ -> app "unexpected reply to cert-push"

let shutdown t =
  let outcome =
    let* resp = request t P.Shutdown in
    match resp with
    | P.Bye -> Ok ()
    | P.Error_reply { message; _ } -> app message
    | _ -> app "unexpected reply to shutdown"
  in
  close t;
  outcome

(* --- the retry ladder --------------------------------------------------- *)

type retry = {
  retries : int;
  timeout_s : float option;
  backoff_base_s : float;
  backoff_cap_s : float;
  jitter_seed : int;
  sleep : float -> unit;
}

let default_retry =
  {
    retries = 2;
    timeout_s = None;
    backoff_base_s = 0.05;
    backoff_cap_s = 2.0;
    jitter_seed = Unix.getpid ();
    sleep = Unix.sleepf;
  }

(* The whole schedule is a pure function of the policy: capped
   exponential base, deterministic seeded jitter in [0.5, 1.5) — so
   tests can assert the exact delays without sleeping, and two clients
   with different seeds cannot stampede in lockstep. *)
let backoff_schedule r =
  let st = Random.State.make [| r.jitter_seed |] in
  List.init (max 0 r.retries) (fun k ->
      let base =
        Float.min r.backoff_cap_s (r.backoff_base_s *. (2. ** float_of_int k))
      in
      base *. (0.5 +. Random.State.float st 1.0))

(* Retrying before the request frame is written is always safe; after,
   only for requests where a duplicate execution is harmless. The
   non-idempotent ones — cache-clear and shutdown — are never retried
   once sent. *)
let idempotent = function
  | P.Cache_clear | P.Shutdown -> false
  | P.Ping | P.Describe | P.Check _ | P.Check_batch _ | P.Cert_fetch _
  | P.Cert_push _ | P.Cache_stats | P.Server_stats ->
      true

let retryable_connect = function Rejected -> false | _ -> true

let call ?(retry = default_retry) ?client ~socket req =
  let rec go attempt delays =
    let maybe_retry e ~retryable =
      let e = { e with attempts = attempt } in
      match delays with
      | d :: rest when retryable ->
          retry.sleep d;
          go (attempt + 1) rest
      | _ -> Error e
    in
    match connect ?client ?timeout_s:retry.timeout_s ~socket () with
    | Error e ->
        (* no request was sent: refused/busy/timeout connects always
           retry, a protocol-version rejection never will succeed *)
        maybe_retry e ~retryable:(retryable_connect e.kind)
    | Ok t -> (
        let result = request t req in
        close t;
        match result with
        | Ok resp -> Ok resp
        | Error e -> maybe_retry e ~retryable:(idempotent req))
  in
  go 1 (backoff_schedule retry)

let raw_hello ~socket ~protocol =
  match dial socket with
  | Error e -> Error e.message
  | Ok fd ->
      let io = P.Io.of_fd fd in
      let finally () = close_fd fd in
      Fun.protect ~finally (fun () ->
          let dl = Some (Unix.gettimeofday () +. 30.) in
          match
            P.Io.write_frame ?deadline:dl io
              (P.hello_to_string { P.protocol; client = "entangle-test" })
          with
          | Error e -> Error (P.Io.error_message e)
          | Ok () -> (
              match P.Io.read_frame ?deadline:dl io with
              | Error e -> Error (P.Io.error_message e)
              | Ok payload -> P.welcome_of_string payload))
