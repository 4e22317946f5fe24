(** Trace sinks: where events go.

    A sink is the single extension point of the diagnostics API — the
    checker and the saturation runner emit {!Event.t}s into whatever
    sink the configuration carries, and never know whether that is
    {!null}, an in-memory {!Collect}or, a streaming {!Chrome} writer or
    a user's own {!make}.

    {b Zero-overhead no-op}: {!null} is [enabled = false], and every
    emission helper returns immediately without building the event.
    Hot call sites additionally guard with [if Sink.enabled sink then
    ...] so argument lists are never allocated either — with the no-op
    sink the instrumented hot path costs one load and one branch (the
    [trace.sink] test asserts that emitting into {!null} allocates
    nothing). *)

type t

val null : t
(** Discards everything; [enabled null = false]. *)

val make : ?flush:(unit -> unit) -> (Event.t -> unit) -> t
(** An enabled sink from an event consumer. *)

val enabled : t -> bool
(** Guard for hot call sites: when [false], skip building args. *)

val emit : t -> Event.t -> unit
(** Emit a pre-built event (no-op on a disabled sink). *)

val span_begin :
  t -> ?args:(string * Event.value) list -> cat:string -> string -> unit

val span_end :
  t -> ?args:(string * Event.value) list -> cat:string -> string -> unit

val counter : t -> args:(string * Event.value) list -> cat:string -> string -> unit
val instant : t -> ?args:(string * Event.value) list -> cat:string -> string -> unit

val span : t -> cat:string -> string -> (unit -> 'a) -> 'a
(** [span sink ~cat name f] brackets [f ()] in a begin/end pair (ended
    even when [f] raises). On a disabled sink this is exactly [f ()]. *)

val tee : t -> t -> t
(** Duplicate events into both sinks. Disabled operands short-circuit:
    [tee null s] is [s] itself, so a tee costs nothing when only one
    side is live. *)

val flush : t -> unit
