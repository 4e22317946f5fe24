(** The certificate cache: content-addressed memoization of the
    per-operator relation search.

    One entry records the outcome of [Node_rel.compute] for one
    sequential operator: either the clean mapping expressions found for
    its output (the replayable certificate) or the fact that saturation
    proved no mapping exists. The key fingerprints {e every} input of
    that computation. A [key/2] key is the hash of, in order:

    - the base, once per check: search-relevant configuration, the
      lemma corpus, the distributed constraint store and the Merkle
      fingerprints of every distributed output;
    - the sequential-input seeds, once per check: each sequential graph
      input's mapping set, as fingerprints over the distributed graph.
      Every candidate seed is hashed, also the ones the search drops as
      unconnected to what it loads: which ones it keeps is a function of
      the seeds and the cone;
    - the operator's Merkle fingerprint over the sequential graph
      (op + attributes + transitive input structure and shapes);
    - the operator's own seeds: the mapping sets of its inputs;
    - the distributed {e cone}: the node set the frontier search (paper
      Listing 3) loads for those seeds, computed by the same
      {!Graph.cone} call from the same {!Graph.anchors}, without an
      e-graph. With the frontier off it is the whole distributed graph,
      hashed once per check.

    The per-check parts are hashed on the context's first {!key} call
    and reused while later calls pass the same sequential-input
    entries; the lemma corpus's fingerprint is remembered across
    checks. Because the base covers every distributed output, an edit
    anywhere in the distributed graph still invalidates every key.

    A hit does not blindly trust the stored expressions: the
    certificate is {e replayed} against the current graphs — leaves
    resolved by name, then the bundle verifier's expression check
    ({!Entangle_certexport.Verify.check_exprs}): cleanliness, output
    mappings over distributed outputs only, and shapes re-inferred
    under the current constraint store against the operator's output.
    Any mismatch degrades to {!Replay_failed} and the caller falls back
    to the normal search. Verdicts that say nothing about the model
    ([Inconclusive], [Internal]) are never cached; [Unmapped] {e is}
    cached, because saturation outcomes are deterministic for a fixed
    key. *)

open Entangle_ir

type t
(** A handle on an opened on-disk store. *)

val create : ?dir:string -> ?budget:Store.budget -> unit -> (t, string) result
(** Open (creating if needed) the store at [dir], defaulting to the
    directory {!Store.open_} defaults to; [budget] (default
    {!Store.env_budget}) bounds the store's size and entry age — see
    {!Store}. *)

val dir : t -> string

type provenance = Hit | Miss | Replay_failed of string
(** How one operator's result was obtained: served from the cache,
    searched because no entry existed, or searched because an entry
    existed but failed certificate replay (payload, name-resolution or
    shape validation). *)

val pp_provenance : provenance Fmt.t

type entry =
  | Mapped of { mappings : Expr.t list; output_mappings : Expr.t list }
      (** the clean expressions found for the operator's output, and
          the subset over distributed outputs *)
  | Unmapped  (** saturation proved no clean mapping exists *)

type ctx
(** Per-check context: fingerprint environments for both graphs, the
    distributed name-resolution table, the base fingerprint and the
    batch of entries the check has yet to write. Built once per
    [Refine.check]. *)

val context :
  t ->
  config_fp:string ->
  whole_graph:bool ->
  rules:Entangle_egraph.Rule.t list ->
  gs:Graph.t ->
  gd:Graph.t ->
  ctx option
(** [None] when the distributed graph has duplicate tensor names:
    certificates resolve leaves by name, so replay would be ambiguous —
    the cache disables itself rather than guess. [config_fp] is the
    caller's search-relevant configuration fingerprint
    ([Config.search_fingerprint]); [whole_graph] mirrors a disabled
    frontier optimization (the cone is then the whole distributed
    graph). *)

val envs :
  ctx ->
  Entangle_fingerprint.Fingerprint.env * Entangle_fingerprint.Fingerprint.env
(** The fingerprint environments of the sequential and distributed
    graphs, which a certificate export of the same check reuses. *)

val key :
  ctx -> seeds:(Tensor.t * Expr.t list) list -> Node.t -> string
(** The content key for checking operator [v] with the given candidate
    seeds ([v]'s input mappings plus the sequential-input mappings, the
    list [Node_rel.compute] receives). The search seeds only the entries
    connected to what it loads, a function of these seeds and the cone,
    both hashed here, so equal keys mean equal loaded content. The
    sequential-input digest is reused only when [seeds] holds the same
    sequential-input tensors, in the same order, with physically the
    same mapping lists as the call that computed it; otherwise it is
    recomputed. *)

val find : ctx -> key:string -> Node.t -> [ `Hit of entry | `Miss | `Replay_failed of string ]
(** Look up and replay-validate an entry for operator [v]. Entries
    recorded by {!put} are not in the store until {!flush}; the keys
    of one check differ as long as the sequential graph's tensor names
    do, since each covers its operator's output tensor by name. *)

val put : ctx -> key:string -> entry -> unit
(** Record an entry in the context's batch; nothing is written until
    {!flush}, so a check's entries land together when it ends, as one
    pack ({!Store.put_all}). A [Mapped] entry with no mappings is not
    stored. *)

val pending : ctx -> int
(** Entries recorded by {!put} since the last {!flush}. *)

val flush : ctx -> int
(** Write the pending entries as one pack and empty the batch; the
    bytes written. Best-effort: I/O errors are swallowed (the cache
    must never fail a check) and read as [0]. [Refine.check] calls it
    once, when the check returns or raises. *)

(** {1 Maintenance} (the [entangle cache] subcommand) *)

val stats : t -> Store.stats
val clear : t -> int

val gc : ?budget:Store.budget -> t -> Store.gc_result
(** One-shot retention sweep — see {!Store.gc}. *)

val export_archive : t -> string * int
(** Dump every valid entry as a portable archive ({!Store.export_all}):
    quarantined, version-skewed and corrupt entries can never export
    because reads go through the validating [get] path. *)

val import_archive : t -> string -> (int * int, string) result
(** Import an archive, structurally validating each payload with
    {!validate_payload}; [(imported, rejected)]. *)

val verify : t -> Store.verify_result
(** Structurally validate every entry's payload (header, key and
    s-expression shape); damaged entries are quarantined. *)

val validate_payload : string -> (unit, string) result
(** The structural payload check used by {!verify}: parses without
    resolving leaves against any graph. *)
