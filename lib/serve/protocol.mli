(** The resident checker service's wire protocol — the first public,
    versioned API of the system.

    {2 Transport}

    Length-prefixed frames over a Unix-domain stream socket. One frame
    is the decimal byte length of the payload in ASCII, a newline,
    then exactly that many payload bytes:

    {v
    <len>\n<payload bytes>
    v}

    Every payload is a single S-expression ({!Entangle_ir.Sexp});
    graphs and relations are embedded {e structurally} (the
    {!Entangle_ir.Serial} grammar), not as quoted strings, so there is
    no escaping tower. Frames above {!max_frame_bytes} are rejected
    without reading the payload — a garbage prefix cannot make the
    server allocate unboundedly.

    {2 Version negotiation}

    The first frame on a connection is the client's hello:

    {v
    (hello (protocol <n>) (client <name>))
    v}

    The server answers [(welcome (protocol <n>) (server <name>))] and
    the session proceeds, or — when the client's protocol number is
    not exactly {!protocol_version} — a structured
    [(reject (expected <n>) (got <m>) (message <why>))] and closes the
    connection. A server at its [--max-clients] admission limit
    answers [(busy (max-clients <n>) (message <why>))] {e without}
    waiting for the hello, then closes; busy is the retryable
    rejection (the client backs off and redials), reject is the
    permanent one. Every rejection is a frame, never a hang or a
    slammed socket, so a turned-away client can always print {e why}.
    The protocol number covers the whole grammar: any incompatible
    change to request or response shapes bumps it.

    {2 Requests}

    After the handshake the client sends any number of
    [(request (id <n>) <body>)] frames; the server answers each with
    [(response (id <n>) <body>)], echoing the id (ids let traces
    correlate per-request spans; the server answers in order). Request
    bodies:

    {v
    (ping)
    (describe)
    (check (options ...) (gs <graph>) (gd <graph>) (relation <rel>))
    (check-batch (options ...) (instances (instance (gs ..) (gd ..) (relation ..)) ...))
    (cert-fetch (options ...) (gs <graph>) (gd <graph>) (relation <rel>) (env (SYM INT) ...))
    (cert-push (bundle <text>))
    (cache-stats)
    (cache-clear)
    (server-stats)
    (shutdown)
    v}

    [cert-fetch] runs a check like [check] but, on a [refines] verdict,
    answers [(cert-bundle (bundle <text>))] — a portable,
    tamper-evident certificate bundle ({!Entangle_certexport.Bundle})
    the client should re-verify with the independent minimal verifier
    before trusting; a check that does not refine answers the ordinary
    [result] body so the caller still gets the verdict. [cert-push]
    submits a bundle the {e server} verifies with the minimal verifier,
    answering [(cert-verdict (accepted <bool>) (id <hex>) (code CERTnnn)
    (detail ...))] (id/code optional) — the structured [CERTnnn] code
    names which defense rejected a bad bundle.

    [check-batch] is the one request with more than one response
    frame: the server streams [(batch-item (index <i>) <body>)] per
    instance, in index order, each body a full per-check response
    ([result] or [error]), terminated by [(batch-done (count <k>))] —
    all echoing the request id. One slow instance never buffers the
    others' verdicts.

    Error replies reuse the checker's verdict taxonomy exit codes: a
    check that runs to a verdict is a [result] carrying the same exit
    code (0-3) the local CLI would have returned; a request the server
    could not run at all is an [(error (code <c>) (message ...))] with
    [bad-request] (the CLI usage-error exit, 124) or [internal] (the
    internal-verdict exit, 3). *)

val protocol_version : int
(** [3]. Version 2 added [busy] admission rejections, [check-batch]
    with streamed per-instance responses, and [server-stats]; version 3
    added certificate exchange ([cert-fetch]/[cert-push]). *)

val max_frame_bytes : int
(** Frames larger than this are refused (64 MiB). *)

(* --- framing ----------------------------------------------------------- *)

val encode_frame : string -> string
(** The wire bytes of one frame: length prefix, newline, payload. *)

(** The framing both ends speak: frames over a non-blocking
    descriptor, every wait bounded by an optional absolute deadline
    ([Unix.gettimeofday] seconds). Reads additionally abort when the
    optional [cancel] descriptor becomes readable (the server's drain
    pipe). A stalled peer costs one [Timeout], never a wedged thread;
    writes ignore [cancel] so an in-flight reply can finish during a
    drain. *)
module Io : sig
  type error = Timeout | Closed | Cancelled | Failed of string

  val error_message : error -> string

  type t

  val of_fd : ?cancel:Unix.file_descr -> Unix.file_descr -> t
  (** Switches [fd] to non-blocking mode. *)

  val fd : t -> Unix.file_descr

  val wait_input : ?deadline:float -> t -> (unit, error) result
  (** Block until a byte is available (buffered or on the wire), the
      deadline passes, or [cancel] fires — the idle wait between
      requests, distinct from the per-frame deadline. *)

  val read_frame : ?deadline:float -> t -> (string, error) result
  (** [Closed] only at a clean frame boundary; a connection dropped
      mid-frame is a [Failed _] torn frame, and so is a length prefix
      that is empty, longer than 10 digits, not decimal, or above
      {!max_frame_bytes} — refused before any payload is read. *)

  val write_frame : ?deadline:float -> t -> string -> (unit, error) result

  val write_raw : ?deadline:float -> t -> string -> (unit, error) result
  (** Raw bytes, no framing — the torn-frame fault-injection hook. *)
end

(* --- handshake --------------------------------------------------------- *)

type hello = { protocol : int; client : string }

type welcome =
  | Welcome of { protocol : int; server : string }
  | Rejected of { expected : int; got : int; message : string }
  | Busy of { max_clients : int; message : string }
      (** admission-limit rejection: retryable, sent without reading
          the hello *)

val hello_to_string : hello -> string
val hello_of_string : string -> (hello, string) result
val welcome_to_string : welcome -> string
val welcome_of_string : string -> (welcome, string) result

(* --- requests ---------------------------------------------------------- *)

type check_options = {
  family : string option;
      (** lemma-corpus selection by model family name
          ({!Entangle_lemmas.Registry.family_of_string}); [None] = the
          full corpus, matching a local [check-files] run *)
  namespace : string option;
      (** per-client certificate-cache namespace
          ({!Entangle.Config.cache_namespace}) *)
  keep_going : bool;  (** multi-fault localization *)
}

val default_options : check_options

type batch_instance = {
  gs : Entangle_ir.Sexp.t;
  gd : Entangle_ir.Sexp.t;
  relation : Entangle_ir.Sexp.t;
}

type request =
  | Ping
  | Describe
      (** protocol introspection: the reply carries the shared
          schema-versioned JSON envelope ([entangle/serve/1]) *)
  | Check of {
      options : check_options;
      gs : Entangle_ir.Sexp.t;  (** {!Entangle_ir.Serial} graph *)
      gd : Entangle_ir.Sexp.t;
      relation : Entangle_ir.Sexp.t;  (** {!Entangle.Relation_io} *)
    }
  | Check_batch of { options : check_options; instances : batch_instance list }
      (** several instances in one frame, one [options] for all;
          answered by streamed {!Batch_item}s in index order and a
          final {!Batch_done} *)
  | Cert_fetch of {
      options : check_options;
      gs : Entangle_ir.Sexp.t;
      gd : Entangle_ir.Sexp.t;
      relation : Entangle_ir.Sexp.t;
      env : (string * int) list;
          (** concrete shape-symbol assignment baked into the bundle
              (the minimal verifier replays concretely) *)
    }
      (** run the check and, when it refines, answer {!Cert_bundle};
          otherwise the ordinary {!Checked} verdict *)
  | Cert_push of { bundle : string }
      (** submit a bundle for server-side minimal verification;
          answered by {!Cert_verdict_reply} *)
  | Cache_stats
  | Cache_clear
  | Server_stats
  | Shutdown

val request_name : request -> string
(** The request's head atom on the wire ([check-batch] for
    [Check_batch _]), which also names its server span and its
    [serve.dispatch.<name>] failpoint. The [cache-stats] and
    [server-stats] replies are headed by their request's name. *)

val request_names : string list
(** The ten request names, one per constructor, in the order
    [describe] lists them. *)

val request_to_string : id:int -> request -> string
val request_of_string : string -> (int * request, string) result

(* --- responses --------------------------------------------------------- *)

type error_code = Bad_request | Server_internal

val error_exit_code : error_code -> int
(** The CLI exit the error maps to: [Bad_request] → 124 (usage),
    [Server_internal] → 3 (the [Internal] verdict's exit). *)

type check_reply = {
  exit_code : int;  (** the {!Entangle.Refine.exit_code} convention *)
  verdict : string;
      (** ["refines"], ["unmapped"], ["inconclusive"] or ["internal"]
          — the verdict taxonomy constructor that produced
          [exit_code] *)
  report : string;  (** the rendered {!Entangle.Report}, verbatim *)
  output_relation : Entangle_ir.Sexp.t option;
      (** on success: the certificate, for local concrete replay *)
  stats : Entangle.Refine.stats;
}

type server_stats = {
  accepted : int;  (** connections accepted since the daemon started *)
  active : int;  (** connections currently being handled *)
  served : int;  (** requests answered, including error replies *)
  rejected_busy : int;  (** connections turned away at the admission limit *)
  timed_out : int;  (** I/O deadlines tripped (slow reads or writes) *)
  drained : int;  (** connections closed while the daemon was draining *)
  accept_failures : int;  (** accept(2) failures survived (e.g. EMFILE) *)
  max_clients : int;  (** the admission limit in force *)
}

type cert_verdict = {
  accepted : bool;
  cert_id : string option;
      (** the bundle's content address, when it parsed far enough to
          have one *)
  cert_code : string option;
      (** the structured [CERT*] rejection code
          ({!Entangle_certexport.Cert_error.code_string}) when
          [accepted] is false *)
  cert_detail : string;  (** human-readable elaboration *)
}

type response =
  | Pong
  | Described of string  (** the JSON envelope document *)
  | Checked of check_reply
  | Cache_stats_reply of { dir : string; stats : Entangle_cache.Store.stats }
      (** the daemon's store directory and statistics *)
  | Cache_cleared of int
  | Server_stats_reply of server_stats
  | Batch_item of { index : int; body : response }
      (** one streamed [check-batch] result; [body] is a full
          per-check response *)
  | Batch_done of { count : int }  (** terminates a [check-batch] stream *)
  | Cert_bundle of { bundle : string }
      (** a [cert-fetch] success: the serialized bundle text — the
          client must re-verify it with the minimal verifier before
          trusting the verdict it carries *)
  | Cert_verdict_reply of cert_verdict  (** answers [cert-push] *)
  | Bye  (** acknowledges [Shutdown]; the server then closes *)
  | Error_reply of { code : error_code; message : string }

val response_to_string : id:int -> response -> string
val response_of_string : string -> (int * response, string) result

val stats_to_sexp : Entangle.Refine.stats -> Entangle_ir.Sexp.t
val stats_of_sexp : Entangle_ir.Sexp.t -> (Entangle.Refine.stats, string) result
(** Lossless, [wall_time_s] included (hex float rendering), so a
    remote reply's statistics are byte-comparable with a local run's
    after the usual wall-time strip. *)

val describe_json : server:string -> string
(** The [Describe] reply body: the shared [entangle/serve/1] JSON
    envelope listing the protocol version and {!request_names}. *)
