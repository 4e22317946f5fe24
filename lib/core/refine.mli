(** The model-refinement checker (paper Listing 1).

    Processes every operator of the sequential graph in topological
    order, inferring a clean output relation for each; the first
    operator whose outputs cannot be mapped is reported, which is what
    localizes the bug. On success the result carries the complete clean
    output relation — the certificate of soundness (section 3.3).

    {2 Robustness guarantees}

    [check] never lets an exception from the per-operator search
    escape: anything raised while computing one operator's relation
    (rewrite appliers, the symbolic decision procedure, e-graph
    invariant audits, injected failpoints) is caught at the operator
    boundary and reported as an {!Internal} verdict localized to that
    operator. The only raises are the documented precondition
    violations ([Invalid_argument] before any operator is processed).

    Every failure carries a structured {!verdict} separating {e the
    relation provably does not exist} ({!Unmapped}) from {e the search
    ran out of budget} ({!Inconclusive}) from {e the checker itself
    broke} ({!Internal}) — three situations that demand different
    responses (fix the model / raise the budget / file a checker bug). *)

open Entangle_ir
open Entangle_egraph

type stats = {
  operators_processed : int;
  saturation_iterations : int;
  egraph_nodes_peak : int;
  egraph_classes_peak : int;
  matches_examined : int;
      (** substitutions collected by e-matching across all saturations;
          the work the incremental runner saves *)
  unions_applied : int;  (** rule applications that merged classes *)
  rule_hits : (string * int) list;  (** per-lemma application counts *)
  retries : int;
      (** escalation attempts taken beyond first tries (see
          {!Config.t.escalation}) *)
  budget_trips : int;
      (** per-operator saturation loops stopped by an exhausted budget,
          whether or not they had found a mapping *)
  cache_hits : int;
      (** operators answered by certificate-cache replay instead of a
          fresh search (0 unless [config.Config.cache] is set) *)
  cache_misses : int;
      (** cache lookups that found no entry (the search then ran and
          populated the store) *)
  cache_replays_failed : int;
      (** cache entries found but rejected by replay validation — the
          search then ran as if the lookup had missed *)
  wall_time_s : float;
}

type scope =
  | Operator_scope  (** a per-operator budget tripped *)
  | Check_scope
      (** the whole-check deadline tripped; fatal — no escalation, and
          [keep_going] stops localizing *)

type exhausted = {
  budget : Runner.budget;  (** which budget tripped *)
  scope : scope;
  retries_used : int;
      (** escalation rungs consumed before giving up *)
}

type error = {
  exn : string;  (** [Printexc.to_string] of the caught exception *)
  backtrace : string;
  failpoint : string option;
      (** the failpoint name when the exception was
          {!Entangle_failpoint.Failpoint.Injected} — fault-injection
          tests use this to assert the failure was the seeded one *)
}

type verdict =
  | Unmapped of string
      (** the search saturated without mapping the operator's output: a
          clean relation is {e provably absent} under the given rules.
          The payload is a human-readable elaboration. *)
  | Inconclusive of exhausted
      (** a budget ran out before either a mapping or saturation; says
          nothing about whether a relation exists *)
  | Internal of error
      (** the checker itself failed on this operator; the verdict
          localizes the crash, it does not judge the model *)

type fault = {
  fault_operator : Node.t;
  fault_verdict : verdict;
  fault_input_mappings : (Tensor.t * Expr.t list) list;
}
(** One localized failure under [keep_going] (field names are prefixed
    to coexist with {!failure} in the same scope). *)

type success = {
  output_relation : Relation.t;
      (** maps every sequential output to clean expressions over
          distributed outputs *)
  full_relation : Relation.t;
      (** maps every sequential tensor (the accumulated R) *)
  cache_provenance : (Node.t * Entangle_cache.Cache.provenance) list;
      (** how each operator's relation was obtained (cache hit / miss /
          replay failure), in processing order; empty when caching is
          disabled *)
  envs :
    (Entangle_fingerprint.Fingerprint.env
    * Entangle_fingerprint.Fingerprint.env)
    Lazy.t;
      (** the fingerprint environments of [gs] and [gd], which a
          certificate export ({!Cert_export.bundle}) hashes its
          statement with: the certificate cache's own when the check
          ran cached, else built when first forced *)
  stats : stats;
}

type failure = {
  operator : Node.t;  (** the first failing operator *)
  verdict : verdict;  (** that operator's verdict *)
  faults : fault list;
      (** every localized fault, in topological order; a singleton
          (mirroring [operator]/[verdict]) unless
          [config.Config.keep_going] found more. Never empty. *)
  dependents_skipped : Node.t list;
      (** operators skipped under [keep_going] because an input
          depended on a faulty operator's output — their verdict would
          only echo the upstream fault *)
  partial_relation : Relation.t;
      (** R accumulated before (and, under [keep_going], around) the
          failures; faulty outputs appear bound to opaque
          ["%opaque:..."] placeholder leaves *)
  input_mappings : (Tensor.t * Expr.t list) list;
      (** the first failing operator's input relations, for
          localization *)
  cache_provenance : (Node.t * Entangle_cache.Cache.provenance) list;
      (** cache provenance for the operators that were processed before
          (and, under [keep_going], around) the failure *)
  stats : stats;
}

val pp_verdict : Format.formatter -> verdict -> unit
val verdict_to_string : verdict -> string

val exit_code : (success, failure) result -> int
(** The process exit code convention shared by the CLI: 0 success,
    1 refinement failure ({!Unmapped}), 2 {!Inconclusive},
    3 {!Internal}. *)

val check :
  ?config:Config.t ->
  ?rules:Rule.t list ->
  gs:Graph.t ->
  gd:Graph.t ->
  input_relation:Relation.t ->
  unit ->
  (success, failure) result
(** [rules] defaults to the full ATen corpus
    ({!Entangle_lemmas.Registry.all}). Raises [Invalid_argument] when
    the input relation is not clean or does not cover the sequential
    graph's inputs that are actually used, and with the rendered
    diagnostics when either graph fails the
    {!Entangle_analysis.Graph_check} well-formedness pass.

    Budgets: besides the per-operator saturation limits
    ([config.Config.limits]: iterations, nodes, classes),
    [config.Config.op_deadline_s] bounds each operator attempt and
    [config.Config.check_deadline_s] bounds the whole call. All are
    checked cooperatively (per saturation iteration / operator
    boundary): tripping one yields an {!Inconclusive} verdict, never a
    hang or a kill. A search a budget stopped after mapping the
    operator's output (to a distributed graph output, when the output
    is a graph output) still counts; one that left no mapping, or left
    a graph output unexposed, is inconclusive.

    Escalation: when an operator comes back inconclusive, it is retried
    along [config.Config.escalation] (each rung scales the limits)
    before the verdict is accepted; each
    retry emits a [cat:"retry"] span. Retries cannot flip a reachable
    verdict — they only run where the base attempt proved nothing.

    Multi-fault localization: with [config.Config.keep_going], checking
    continues past failing operators (outputs bound to opaque
    placeholders, dependents skipped) and every independent fault is
    returned in [failure.faults].

    Caching: with [config.Config.cache] set, each operator's search is
    keyed by content fingerprint (operator cone, seed relations, rule
    corpus, search configuration — see {!Entangle_cache.Cache}) and
    looked up first. A hit replays the stored certificate (re-validated
    structurally and by shape inference) with zero saturation work; a
    miss searches and populates the store. Only definitive outcomes
    (mappings from a search no budget stopped, or provable absence at
    saturation) are cached — budget-stopped searches, {!Inconclusive}
    and {!Internal} never are — so verdicts are unchanged, cached or
    not. Cache activity shows up as [cat:"cache"]
    trace events, in [stats], and per-operator in [cache_provenance].

    Diagnostics flow through [config.Config.trace]
    ({!Entangle_trace.Sink}): per-operator spans with
    frontier/saturate/extract phases, per-iteration saturation
    counters, per-rule hit events, e-graph growth samples, retry spans
    and budget-trip instants. The [stats] of the result are a fold
    ({!Entangle_trace.Agg}) over that same event stream — per-rule
    application counts, previously the removed [?hit_counter]
    parameter, are in [stats.rule_hits] — so a collected trace and the
    statistics can never disagree ({!stats_of_events} performs the same
    fold over a collected event list). *)

val stats_of_events :
  ?wall_time_s:float -> Entangle_trace.Event.t list -> stats
(** Derive a [stats] record from a collected trace (the same fold
    {!check} applies on the fly). [wall_time_s] defaults to [0.] —
    wall time is a clock reading, not an event aggregate. *)
