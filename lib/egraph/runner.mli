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

type budget = Iterations | Nodes | Classes | Deadline
(** What stopped a search early: the three growth caps of {!limits}
    and the wall-clock [deadline] of {!step}. *)

val budget_name : budget -> string

type limits = { max_iterations : int; max_nodes : int; max_classes : int }
(** The discrete budgets: the ones {!scale_limits} scales and the
    checker's cache key covers. [max_iterations] bounds the steps a
    driver takes (it is the driver's count; {!step} does not read it).
    [max_nodes] and [max_classes] are checked before each step's pass
    and after a pass that merged nothing; [max_nodes] also cuts a rule's
    application short mid-pass. *)

val default_limits : limits
(** 30 iterations, 20k nodes, 10k classes. *)

val scale_limits : int -> limits -> limits
(** Multiply every budget by a factor — the escalation ladder's "double
    the limits" rung. *)

type report = {
  iterations : int;
      (** steps taken, including a last one that tripped before its
          pass *)
  saturated : bool;  (** reached a fixpoint before hitting a limit *)
  nodes : int;
  classes : int;
  matches : int;  (** substitutions examined during this run *)
  unions : int;  (** applications that merged two classes *)
  tripped : budget option;
      (** which budget ended the run, when one did. [None] with
          [saturated = false] is a cool-down cut short by the per-rule
          match cap that merged nothing (a step's [Unconfirmed]). *)
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

type state
(** Scheduler and incremental-matching state: per-rule last-search
    generations, match caches and ban status, held in arrays indexed
    by the rule's position in its {!index}, and a global iteration
    counter. Persistent across {!step} calls, so a driver's later
    steps (the checker's rounds, {!run}'s iterations) match
    incrementally.
    A state is tied to one e-graph and one rule list; do not reuse it
    across e-graphs (generations are per-graph). *)

val create_state : ?match_limit:int -> ?ban_length:int -> index -> state
(** Defaults: [match_limit = 1000], [ban_length = 5] (egg's defaults
    for the backoff scheduler). *)

type outcome =
  | Merged  (** the step merged classes: there may be more to do *)
  | Saturated
      (** a pass with every rule searched over every candidate class
          merged nothing: a genuine fixpoint *)
  | Unconfirmed
      (** a pass merged nothing but left candidates unexamined (a
          deferred constrained rule, a ban, a capped collect), and
          either [confirm] was off or the cool-down that confirmed it
          was itself capped *)
  | Tripped of budget
      (** a budget ran out, before the pass (nothing ran) or after a
          pass or cool-down that merged nothing *)

type iteration = {
  outcome : outcome;
  matches : int;  (** substitutions examined by the step's passes *)
  unions : int;  (** applications that merged two classes *)
}

val step :
  ?sink:Entangle_trace.Sink.t ->
  ?invariant_check:(Egraph.t -> unit) ->
  ?deadline:float ->
  limits:limits ->
  confirm:bool ->
  state ->
  Egraph.t ->
  iteration
(** One iteration: the budget check, one scheduled pass and its
    {!Egraph.rebuild}. When that pass merged nothing, the budgets are
    checked again; then a pass that left candidates unexamined is a
    fixpoint candidate, and with [confirm] the step also runs the
    cool-down (every ban lifted, constrained rules over their complete
    match set) and its rebuild, inside the same iteration span. Only
    this function runs a pass. Drivers loop over its outcome: {!run}
    confirms every candidate; the checker does not, and asks for a
    confirming step only when it is about to give up without a mapping.

    [deadline] is an absolute wall-clock bound ([Unix.gettimeofday]
    scale), checked where the node and class caps are; [None] (the
    default) sets none.

    [sink] (default {!Entangle_trace.Sink.null}) receives the trace
    events described above: one [iteration] span per step with a
    growth sample, per-rule [rule-hit] and [rule-ban] instants, and a
    [cooldown] instant. Collect them with {!Entangle_trace.Collect} or
    fold them with {!Entangle_trace.Agg} to aggregate counts over a
    whole verification.

    [invariant_check] is a debug hook invoked on the e-graph after every
    {!Egraph.rebuild} (when the congruence invariant is supposed to
    hold). The static-analysis subsystem provides one that raises on any
    violated e-graph invariant
    ([Entangle_analysis.Egraph_check.runner_hook]). *)

val run :
  ?limits:limits ->
  ?sink:Entangle_trace.Sink.t ->
  ?invariant_check:(Egraph.t -> unit) ->
  ?state:state ->
  Egraph.t ->
  Rule.t list ->
  report
(** Saturate: {!step} with [confirm] until it merges nothing or
    [limits.max_iterations] steps are taken. [sink] and
    [invariant_check] go to every step.

    [state] carries scheduling decisions across calls; omitting it
    creates a fresh default state per call. A state runs only the rules
    of its own index: [rules] must be that list, or one holding the
    same rules in the same order, else [Invalid_argument]. *)
