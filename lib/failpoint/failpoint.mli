(** Named failpoints: deterministic fault injection for the resilience
    guarantees of the refinement pipeline.

    A failpoint is a named site in a hot path ([Egraph.rebuild], the
    e-matcher, the symbolic decision procedure, extraction) that can be
    armed to raise {!Injected} on a chosen hit. The checker promises
    that no exception escapes [Refine.check]; failpoints make that
    promise {e testable}: arm one, run any model, and the checker must
    still return a structured verdict ([Internal], with the failing
    operator localized).

    {b Cost when disarmed}: [hit] is one field load and one branch —
    failpoints stay compiled into production builds.

    {b Activation} is by specification string, either programmatically
    ({!activate_spec}), through the [ENTANGLE_FAILPOINTS] environment
    variable (parsed at library load), or via the CLI's [--failpoints]:

    {v spec    ::= entry ("," entry)*
entry   ::= name "=" trigger
trigger ::= "nth:" N        fire exactly on the Nth hit (1-based)
          | "every:" K      fire on every Kth hit
          | "prob:" P["@"S] fire with probability P (seeded by S)
          | "off"           disarm v}

    Example: [egraph.rebuild=nth:3,symbolic.decide=prob:0.01@42].

    {b Thread safety}: counters are atomic and [prob] triggers draw
    from a per-domain stream seeded [S lxor domain-id] (the initial
    domain has id 0, so its stream is the one [S] names). The handler
    threads of [entangle serve] share the counters and their domain's
    stream: the {e aggregate} hit count stays exact, but which hit a
    given request observes depends on thread scheduling — so
    [nth]/[every]/[prob] fire deterministically only while one check
    runs at a time. *)

type trigger =
  | Nth of int  (** fire exactly on the nth hit, counting from 1 *)
  | Every of int  (** fire on every k-th hit *)
  | Prob of float * int  (** fire with probability [p], seeded *)

exception Injected of string
(** Raised by an armed failpoint; the payload is the failpoint name. *)

type t
(** A declared failpoint (a registry entry with hit counters). *)

val declare : ?doc:string -> string -> t
(** [declare name] registers (or retrieves) the failpoint [name].
    Libraries call this once at initialization and keep the handle for
    {!hit}. A pending trigger from a spec naming [name] before its
    declaration is armed on declaration. *)

val hit : t -> unit
(** Count one hit; raises {!Injected} when the armed trigger fires.
    No-op (one branch) when disarmed. *)

val guard : t -> (unit -> 'a) -> 'a
(** [guard fp f] is [hit fp; f ()]. *)

val set : string -> trigger -> unit
(** Arm one failpoint (pending if not yet declared); resets its
    counters. *)

val activate_spec : string -> (unit, string) result
(** Parse and apply a spec string (grammar above). Entries apply left
    to right; an [off] entry disarms. Returns a parse error without
    applying the offending entry. *)

val clear : unit -> unit
(** Disarm every failpoint and drop pending triggers and counters. *)

val with_armed : string -> trigger -> (unit -> 'a) -> 'a
(** [with_armed name trigger f] arms [name], runs [f], and disarms
    [name] (resetting its counters) even when [f] raises — the scoped
    form chaos tests use so one scenario's trigger cannot leak into
    the next. *)

(** {1 Introspection} *)

val name : t -> string
val doc : t -> string
val hits : t -> int  (** hits since the failpoint was last armed *)

val fired : t -> int
(** injections raised since last armed *)

val armed : t -> bool

val catalog : unit -> t list
(** Every declared failpoint, sorted by name. *)

val names : unit -> string list
