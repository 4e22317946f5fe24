(** Equality-saturation runner.

    Repeatedly matches rules against the e-graph, applies all matches,
    and rebuilds, until a fixpoint or a resource limit. Per-rule
    application counts are recorded (the paper's Figure 6 heatmap).

    One schedule drives the hot path, built from egg's two headline
    optimizations (egg's default runner schedule is the same backoff):

    - {b Incremental e-matching}: the runner records, per rule, the
      e-graph {!Egraph.generation} at which it last searched and
      re-matches only {!Egraph.classes_modified_since} that snapshot
      (intersected with the e-graph's operator-family index). A rule's
      first search is always full.
    - {b Backoff scheduling}: a rule that produces more matches than
      its budget ([match_limit] doubled per overflow) is banned for a
      number of iterations that doubles with every overflow, keeping
      explosive rules from dominating early iterations.

    The runner is instrumented for the structured tracing subsystem
    ({!Entangle_trace}): pass a sink and it emits one span per
    iteration (matches, unions, search-mode and truncation counters,
    ban activity, cool-down markers), an e-graph growth sample per
    iteration, and per-rule [rule-hit]/[rule-ban] instants — the event
    vocabulary of {!Entangle_trace.Event}. With the default
    {!Entangle_trace.Sink.null} the instrumentation is a dead branch:
    no event, argument list or closure is allocated.

    Both optimizations preserve completeness. For unconstrained rules
    (syntactic or conditional) incremental matching is already exact:
    matches and applier conditions are match-local (see {!Rule}), and
    every structural or shape change dirties the affected class and —
    through parent-edge propagation at {!Egraph.rebuild} — all of its
    ancestors. Constrained rules are the exception: a [Check_only]
    target can come into existence anywhere in the e-graph without the
    matched class being dirtied. So before the runner declares
    saturation it runs a {e cool-down} pass: every ban is lifted,
    constrained rules fire over their complete match set (the cached
    substitutions plus a fresh delta), everything else catches up
    incrementally; only an empty complete cool-down reports
    [saturated = true]. *)

type budget = Iterations | Nodes | Classes | Deadline | Heap
(** The resource budgets a run is subject to. [Deadline] and [Heap] are
    the cooperative wall-clock / major-heap checks added for the
    resilience layer; the first three are the classic egg-style growth
    caps. *)

val budget_name : budget -> string

type limits = {
  max_iterations : int;
  max_nodes : int;
  max_classes : int;
  deadline : float option;
      (** absolute wall-clock deadline ([Unix.gettimeofday] scale),
          checked once per saturation iteration *)
  max_heap_words : int option;
      (** major-heap word budget, checked once per iteration via
          [Gc.quick_stat] (no heap walk) *)
}

val default_limits : limits
(** 30 iterations, 20k nodes, 10k classes, no deadline, no heap cap. *)

val scale_limits : int -> limits -> limits
(** Multiply the discrete budgets (iterations/nodes/classes) by a
    factor — the escalation ladder's "double the limits" rung. The
    deadline and heap budget are left untouched; callers re-derive
    wall-clock allowances per attempt. *)

type report = {
  iterations : int;
  saturated : bool;  (** reached a fixpoint before hitting a limit *)
  nodes : int;
  classes : int;
  matches : int;  (** substitutions examined during this run *)
  unions : int;  (** applications that merged two classes *)
  tripped : budget option;
      (** which budget ended the run, when one did. [None] with
          [saturated = false] is an unconfirmed fixpoint candidate
          (see [confirm_saturation]); [None] with [saturated = true]
          is genuine saturation. *)
}

type index
(** A rule list with what the scheduler reads of each rule on every
    visit: its position, its root operator family, whether its
    application depends on global e-graph state (constrained or
    [nonlocal]), and whether its delta matching must re-admit whole
    classes (a conditional local applier, or a non-linear pattern).
    None of it depends on an e-graph, so one index serves every
    {!state} that saturates with the list: the checker builds one per
    check and shares it across the fresh e-graph of every operator. *)

val index : Rule.t list -> index

val rules : index -> Rule.t list
(** The list [index] was built from. *)

type state
(** Scheduler and incremental-matching state: per-rule last-search
    generations, match caches and ban status, held in arrays indexed
    by the rule's position in its {!index}, and a global iteration
    counter. Persistent across {!run} calls so
    drivers that saturate one iteration at a time (the checker's
    round-by-round loop) still match incrementally between rounds.
    A state is tied to one e-graph and one rule list; do not reuse it
    across e-graphs (generations are per-graph). *)

val create_state : ?match_limit:int -> ?ban_length:int -> index -> state
(** Defaults: [match_limit = 1000], [ban_length = 5] (egg's defaults
    for the backoff scheduler). *)

val run :
  ?limits:limits ->
  ?confirm_saturation:bool ->
  ?sink:Entangle_trace.Sink.t ->
  ?invariant_check:(Egraph.t -> unit) ->
  ?state:state ->
  Egraph.t ->
  Rule.t list ->
  report
(** [confirm_saturation] (default [true]) controls the cool-down: with
    [false], a run that reaches a fixpoint candidate (a scheduled pass
    with zero unions) returns immediately with [saturated = false]
    instead of paying the cool-down pass that would confirm or refute
    it. Drivers that often stop before saturation (the checker stops as
    soon as a mapping is extractable) use this to skip the cool-down on
    operators that never need a trustworthy [saturated], calling again
    with confirmation on only when they are about to give up. A report
    with [unions = 0] and [saturated = false] under
    [confirm_saturation:false] is exactly such an unconfirmed candidate.

    [sink] (default {!Entangle_trace.Sink.null}) receives the trace
    events described above. Per-rule application counts arrive as
    [rule-hit] instants and bans as [rule-ban] instants; collect them
    with {!Entangle_trace.Collect} or fold them with
    {!Entangle_trace.Agg} to aggregate counts over a whole
    verification.

    [invariant_check] is a debug hook invoked on the e-graph after every
    {!Egraph.rebuild} (i.e. once per iteration, when the congruence
    invariant is supposed to hold). The static-analysis subsystem
    provides one that raises on any violated e-graph invariant
    ([Entangle_analysis.Egraph_check.runner_hook]).

    [state] carries scheduling decisions across calls; omitting it
    creates a fresh default state per call. A state runs only the rules
    of its own index: [rules] must be that list, or one holding the
    same rules in the same order, else [Invalid_argument]. *)
