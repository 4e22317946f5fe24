(** Checker configuration.

    The frontier toggle corresponds to the paper's section 4.3.1 and
    exists so the ablation benchmark can quantify it; section 4.3.2 is
    realised by the constrained (check-only) merge directions of the
    lemma corpus, which are always on. Prefer the [with_*] builders
    over open-coded record updates when deriving configurations from
    {!default}. *)

open Entangle_egraph

val default_escalation : int list
(** [[2; 4]]: double the limits, then quadruple them. *)

type t = {
  frontier_optimization : bool;
      (** Section 4.3.1: iteratively grow the related subgraph of the
          distributed graph instead of loading all of it. *)
  limits : Runner.limits;  (** saturation budget per operator *)
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
  escalation : int list;
      (** The escalation ladder: how to re-run an operator whose first
          attempt came back {e inconclusive} (a budget tripped before
          either a mapping or saturation, or before a graph output was
          mapped to a distributed graph output). Each rung is a factor
          that multiplies the discrete saturation budgets
          (iterations/nodes/classes, {!Runner.scale_limits}) and gets
          a fresh per-operator deadline allowance (clamped by the
          whole-check deadline).
          [[]] disables retries. Retries never flip a verdict that the
          base attempt could reach: they run only when the base attempt
          was inconclusive, and a mapping found on any rung is the same
          certificate checked the same way. *)
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

(** {1 Builders}

    [Config.default |> with_limits l |> with_trace sink] — each returns
    an updated copy, so they chain with [|>]. *)

val with_limits : Runner.limits -> t -> t
val with_trace : Entangle_trace.Sink.t -> t -> t
val with_op_deadline : float option -> t -> t
val with_check_deadline : float option -> t -> t
val with_escalation : int list -> t -> t
val with_keep_going : bool -> t -> t
val with_cache : Entangle_cache.Cache.t option -> t -> t

val with_cache_namespace : string -> t -> t
(** See {!t.cache_namespace}; [""] restores the shared namespace. *)

val search_fingerprint : t -> string
(** A stable rendering of every field that can change what the
    per-operator search finds (frontier toggle, discrete limits,
    escalation ladder) — part of every certificate-cache key, so
    changing any such knob soundly invalidates. Wall-clock budgets are
    excluded: {!Refine.check} caches no search that a budget stopped. *)
