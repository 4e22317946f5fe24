(** The resident checker service.

    One [entangle serve] process keeps everything expensive resident —
    the lemma corpus (compiled rules), the checker configuration and the
    warm certificate cache — and answers {!Protocol} requests over a
    Unix-domain socket, so repeated checks from editors, CI shards or
    scripts skip cold start entirely.

    {2 Concurrency}

    The accept loop hands each connection to its own handler thread,
    up to the [max_clients] admission limit; a connection beyond the
    limit is answered with a structured, retryable [busy] frame and
    closed. Each check runs sequentially on its handler thread. Every
    request is bracketed by a [cat:"serve"] trace span on the server's
    sink.

    {2 Robustness}

    Per-connection I/O deadlines bound every read and write: a
    slow-loris writer, a torn frame, or a peer that stops reading its
    replies costs one timeout (counted in {!stats}), never a wedged
    thread. Per-request wall budgets ([request_deadline_s]) reuse the
    checker's cooperative {!Entangle.Config.check_deadline_s}
    semantics — an over-budget check returns an inconclusive verdict,
    it does not hang the daemon. A malformed request, an unparsable
    graph, or a precondition violation is answered with a
    [bad-request] error reply; any other exception during a request is
    caught and answered with an [internal] error reply. The connection
    — and the server — survive all of them.

    {2 Drain}

    [Shutdown] requests and (with [run ~signals:true]) SIGTERM/SIGINT
    start a graceful drain: the accept loop stops, idle connections
    are woken and closed, in-flight requests get until
    [drain_timeout_s] to finish (deadline-bounded checks cancel into
    verdicts within it), handler threads are joined, and the socket
    file is unlinked.

    {2 Socket ownership}

    Two daemons started concurrently on one path resolve to exactly
    one listener: ownership is an fcntl lock on [path ^ ".lock"]
    (plus an in-process registry, since fcntl does not exclude within
    a process) taken before the stale-socket probe, so the loser exits
    with a structured {!In_use} error instead of silently stealing the
    socket. The lock file persists across runs by design. *)

type t

type error =
  | In_use of { socket : string }
      (** another server owns the socket (or its lock) *)
  | Failed of string

val error_message : error -> string

val create :
  ?name:string ->
  ?config:Entangle.Config.t ->
  ?cache:Entangle_cache.Cache.t ->
  ?max_clients:int ->
  ?io_timeout_s:float ->
  ?idle_timeout_s:float ->
  ?request_deadline_s:float ->
  ?drain_timeout_s:float ->
  socket:string ->
  unit ->
  (t, error) result
(** Take the socket lock and bind the listener; a stale socket file
    (left by a crashed server) is unlinked under the lock, a live one
    yields [In_use].

    [config] is the base configuration for every check (default
    {!Entangle.Config.default}); its [trace] sink receives the
    [cat:"serve"] spans. [cache], when given, is installed into that
    configuration and additionally answers [Cache_stats]/[Cache_clear].
    [max_clients] is the concurrent-connection admission limit
    (default 64). [io_timeout_s] (default 30) bounds reading one frame
    once its first byte arrived, and writing one reply.
    [idle_timeout_s] bounds the wait for the {e next} request on an
    established connection (default: unbounded — editors keep
    connections open). [request_deadline_s] is the per-request wall
    budget folded into {!Entangle.Config.check_deadline_s} (a
    client-supplied deadline can only tighten it). [drain_timeout_s]
    (default 5) bounds the graceful drain. [name] is the server
    identity echoed in the handshake and [describe]. *)

val run : ?signals:bool -> t -> unit
(** The accept loop. Returns after a graceful drain, triggered by a
    [Shutdown] request or — with [signals:true] — SIGTERM/SIGINT
    (handlers are installed for the duration and restored on return;
    default [false], for embedders that manage their own signals). On
    return the listening socket is closed, the socket file removed, the
    lock released and all handler threads joined. SIGPIPE is ignored
    for the duration. *)

val socket : t -> string

val stats : t -> Protocol.server_stats
(** The live counters, as served to [server-stats] requests. *)

val draining : t -> bool
