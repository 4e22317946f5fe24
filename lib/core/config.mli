(** Checker configuration.

    The two optimization toggles correspond to the paper's section 4.3
    and exist so the ablation benchmarks can quantify each one. The
    remaining fields have accumulated with the runner rework (PR 2) and
    the diagnostics subsystem (PR 3); prefer the [with_*] builders over
    open-coded record updates when deriving configurations from
    {!default}. *)

open Entangle_egraph

type rung = {
  scale : int;
      (** multiply the discrete saturation budgets
          (iterations/nodes/classes) by this factor,
          {!Runner.scale_limits}-style *)
  scheduler : Runner.scheduler_kind;
  incremental : bool;  (** incremental e-matching on this attempt *)
}
(** One step of the escalation ladder: how to re-run an operator whose
    first attempt came back {e inconclusive} (a budget tripped before
    either a mapping or saturation). Each rung also forces a
    confirmation cool-down, and gets a fresh per-operator deadline
    allowance (clamped by the whole-check deadline). *)

val default_escalation : rung list
(** Two rungs: double the limits (same scheduler), then quadruple them
    under the [Simple] scheduler with full (non-incremental)
    re-matching — the completeness-first configuration, for when the
    scheduler heuristics themselves are suspected of starving the
    derivation. *)

type t = {
  frontier_optimization : bool;
      (** Section 4.3.1: iteratively grow the related subgraph of the
          distributed graph instead of loading all of it. *)
  prune_equivalent : bool;
      (** Section 4.3.2: keep only the simplest expression per
          equivalence class when recording relations. *)
  max_alternates : int;
      (** Maximum number of alternative mappings recorded per tensor
          when pruning is off. *)
  limits : Runner.limits;  (** saturation budget per operator *)
  lint_graphs : bool;
      (** Run the {!Entangle_analysis.Graph_check} well-formedness pass
          over both graphs before checking; [Refine.check] raises
          [Invalid_argument] with the rendered diagnostics when either
          graph is malformed. On by default. *)
  check_egraph_invariants : bool;
      (** Audit e-graph invariants ({!Entangle_analysis.Egraph_check})
          after every saturation iteration. Expensive; debug only. *)
  scheduler : Runner.scheduler_kind;
      (** Rule scheduler for the saturation runner: [Simple] matches
          every rule every iteration; [Backoff] (default) bans rules
          that overflow their match budget, egg-style. Saturation
          verdicts are unaffected (the runner re-matches everything in
          full before declaring a fixpoint). *)
  incremental_matching : bool;
      (** Re-match each rule only against e-classes modified since that
          rule's last search (default). Off = re-match every candidate
          class every iteration. *)
  trace : Entangle_trace.Sink.t;
      (** Where structured trace events go: per-operator spans,
          per-iteration saturation counters, per-rule hit events and
          e-graph growth samples (see {!Entangle_trace.Event} for the
          vocabulary). Default {!Entangle_trace.Sink.null}, which
          costs one branch per instrumentation point and allocates
          nothing. The checker derives its [stats] from this event
          stream whatever sink is installed, so statistics and traces
          can never disagree. *)
  op_deadline_s : float option;
      (** Wall-clock allowance per operator {e attempt} (each
          escalation rung gets a fresh allowance). Checked
          cooperatively once per saturation iteration; tripping yields
          an [Inconclusive] verdict, never a hang. [None] = no
          per-operator deadline. *)
  check_deadline_s : float option;
      (** Wall-clock allowance for the whole [Refine.check] call,
          measured from its start. Clamps every per-operator deadline
          and stops escalation and [keep_going] continuation once
          exceeded. [None] = no deadline. *)
  escalation : rung list;
      (** The escalation ladder (see {!rung}); [[]] disables retries.
          Retries never flip a verdict that the base attempt could
          reach: they run only when the base attempt was inconclusive
          (a budget tripped), and a mapping found on any rung is the
          same certificate checked the same way. *)
  keep_going : bool;
      (** Multi-fault localization: instead of halting at the first
          failing operator, bind its outputs to opaque placeholder
          relations, skip (and taint) operators that depend on them,
          and keep checking independent operators — every localized
          fault is returned in [failure.faults]. Off by default. *)
  cache : Entangle_cache.Cache.t option;
      (** The persistent certificate cache: per-operator search
          results are looked up by content fingerprint and hits replay
          the stored certificate instead of re-searching (see
          {!Entangle_cache.Cache}). [None] (the default) disables
          caching entirely — the pre-cache behavior. *)
  cache_verify : bool;
      (** Paranoia mode: on a cache hit, run the full search anyway
          and cross-check the cached verdict against the fresh one; a
          disagreement is treated as a replay failure (the fresh
          result wins and overwrites the entry). Costs a full search
          per operator; for cache debugging. *)
  cache_namespace : string;
      (** Partition of the certificate-cache key space. A non-empty
          namespace is mixed into every cache key's base fingerprint,
          so checks under different namespaces never observe each
          other's entries while sharing one store (and its retention
          budget) — the isolation [entangle serve] gives each remote
          client. [""] (the default) is the shared namespace every
          pre-namespace entry lives in. Not a search knob: it is
          deliberately excluded from {!search_fingerprint} and keyed
          in by [Refine.check] itself. *)
}

val default : t
val no_frontier : t
val no_pruning : t

val simple_runner : t
(** The pre-incremental runner: [Simple] scheduling and exhaustive
    re-matching every iteration. The baseline of the scheduler
    ablation. *)

(** {1 Builders}

    [Config.default |> with_scheduler Simple |> with_trace sink] — each
    returns an updated copy, so they chain with [|>]. *)

val with_limits : Runner.limits -> t -> t
val with_scheduler : Runner.scheduler_kind -> t -> t
val with_incremental_matching : bool -> t -> t
val with_trace : Entangle_trace.Sink.t -> t -> t
val with_op_deadline : float option -> t -> t
val with_check_deadline : float option -> t -> t
val with_escalation : rung list -> t -> t
val with_keep_going : bool -> t -> t
val with_cache : Entangle_cache.Cache.t option -> t -> t
val with_cache_verify : bool -> t -> t

val with_cache_namespace : string -> t -> t
(** See {!t.cache_namespace}; [""] restores the shared namespace. *)

val search_fingerprint : t -> string
(** A stable rendering of every field that can change what the
    per-operator search finds (optimization toggles, discrete limits,
    scheduler, incremental matching, escalation ladder) — part of every
    certificate-cache key, so changing any such knob soundly
    invalidates. Wall-clock/heap budgets and the diagnostics fields are
    excluded: they can only produce [Inconclusive]/[Internal] verdicts,
    which are never cached. *)
