(** Client side of the resident checker service.

    [connect] dials the daemon's Unix-domain socket and performs the
    version handshake; every failure is a structured {!error} whose
    {!error_kind} says whether retrying can help ([Refused], [Busy]
    and [Timed_out] are transient; [Rejected] — a protocol-version
    mismatch — is permanent). {!request} is the one way to send on a
    session and returns the typed {!Protocol.response}; [Error _]
    throughout means a transport or protocol failure —
    application-level failures arrive as {!Protocol.Error_reply}
    values (or, from the helpers that interpret a reply, an [App]-kind
    error) so callers can map them onto the CLI exit-code convention.

    {!call} is the one-shot form with the retry ladder: capped
    exponential backoff with deterministic seeded jitter, redialing on
    transient failures. A request that may already have been executed
    is only retried when it is idempotent — [Cache_clear] and
    [Shutdown] are never retried once sent. *)

type error_kind =
  | Refused  (** nobody listening: connection refused or socket absent *)
  | Busy  (** the daemon's structured admission rejection, or a full backlog *)
  | Rejected  (** protocol-version rejection — permanent, never retried *)
  | Timed_out  (** an I/O deadline ([timeout_s]) expired *)
  | Closed  (** the peer hung up *)
  | Protocol_error  (** malformed frame, reply, or id mismatch *)
  | App  (** the daemon's own [Error_reply], flattened by a helper *)

type error = {
  kind : error_kind;
  message : string;
  attempts : int;  (** how many attempts {!call} made (1 from helpers) *)
}

val error_message : error -> string
val kind_name : error_kind -> string

type t

val connect :
  ?client:string ->
  ?timeout_s:float ->
  socket:string ->
  unit ->
  (t, error) result
(** Dial and handshake. [client] is the identity sent in the hello
    (default ["entangle"]). [timeout_s], when given, bounds the
    connect, the handshake, and every subsequent frame read/write on
    this connection. *)

val close : t -> unit
(** Idempotent. *)

val request : t -> Protocol.request -> (Protocol.response, error) result
(** Send one request and read its response; ids are assigned and
    checked internally. A [Check] answers [Ok (Checked _)] or [Ok
    (Error_reply _)] in the usual case; a [Cert_fetch] answers [Ok
    (Cert_bundle _)] when the check refines, [Ok (Checked _)] with the
    ordinary verdict when it does not, and the caller must re-verify
    the bundle with {!Entangle_certexport.Verify} before trusting it —
    the daemon is outside the trust boundary. Not for [Check_batch] —
    use {!check_batch}, which consumes the whole response stream. *)

(** {1 Helpers that interpret a reply}

    Each sends one request and flattens an [Error_reply] or an
    unexpected reply into an [App]-kind error. *)

val ping : t -> (unit, error) result
val describe : t -> (string, error) result

val check_batch :
  t ->
  ?options:Protocol.check_options ->
  instances:Protocol.batch_instance list ->
  unit ->
  (Protocol.response list, error) result
(** Send one [Check_batch] and collect the streamed per-instance
    responses, verifying index order and the final count. The returned
    list is in instance order; each element is a full per-check
    response ([Checked _] or [Error_reply _]). *)

val cert_push : t -> bundle:string -> (Protocol.cert_verdict, error) result
(** Submit a serialized bundle for server-side minimal verification. *)

val shutdown : t -> (unit, error) result
(** Asks the daemon to exit; [Ok ()] once the [Bye] acknowledgement
    arrives. The connection is closed either way. *)

(** {1 The retry ladder} *)

type retry = {
  retries : int;  (** additional attempts after the first *)
  timeout_s : float option;  (** per-attempt I/O deadline *)
  backoff_base_s : float;  (** first delay, doubled each retry *)
  backoff_cap_s : float;  (** ceiling on the exponential base *)
  jitter_seed : int;  (** seeds the deterministic jitter stream *)
  sleep : float -> unit;  (** injectable for tests (default sleeps) *)
}

val default_retry : retry
(** 2 retries, no deadline, 50 ms base, 2 s cap, and the jitter seeded
    by the process id ([Unix.getpid ()]), so client processes that meet
    one busy daemon back off on different schedules. *)

val backoff_schedule : retry -> float list
(** The exact delays {!call} will sleep between attempts, as a pure
    function of the policy: [min cap (base * 2^k)] scaled by a seeded
    jitter factor in [0.5, 1.5). Deterministic per seed — testable
    without sleeping. *)

val call :
  ?retry:retry ->
  ?client:string ->
  socket:string ->
  Protocol.request ->
  (Protocol.response, error) result
(** Dial, handshake, send [req], read the reply, close — retrying on
    transient failures per the ladder. Connect-phase failures (no
    request sent yet) always retry except [Rejected]; request-phase
    failures retry only when the request is idempotent ([Cache_clear]
    and [Shutdown] never are). The final error carries the total
    [attempts] and the {e last} failure's kind and message. *)

val raw_hello :
  socket:string -> protocol:int -> (Protocol.welcome, string) result
(** Send a hello claiming an arbitrary protocol version and return the
    server's verbatim answer — the version-negotiation test hook. The
    connection is closed before returning. *)
