(** The portable certificate bundle: a self-contained, schema-versioned
    s-expression artifact carrying everything needed to re-check a
    refinement verdict without the producer's process, cache or e-graph.

    {2 Wire grammar}

    {v
    (entangle-cert
      (schema 1)
      (producer STRING)
      (manifest
        (id HEX)                       ; content address of the bundle
        (statement                     ; Merkle fps of what is certified
          (gs HEX) (gd HEX) (env HEX)
          (inputs HEX) (outputs HEX) (operators HEX))
        (sections                      ; content digests of the payload
          (graphs HEX) (env HEX) (relations HEX) (operators HEX)))
      (section graphs <gs> <gd>)       ; Serial graph grammar
      (section env (SYM INT) ...)
      (section relations
        (input  (TENSOR <expr>...) ...)
        (output (TENSOR <expr>...) ...))
      (section operators (TENSOR <expr>...) ...))
    v}

    Section digests are SHA-256 ({!Entangle_fingerprint.Sha256}) over
    the canonical rendering of each [(section ...)] form — any semantic
    byte of a section is covered; re-indenting the file is harmless.
    Statement fingerprints reuse the Merkle discipline of
    {!Entangle_fingerprint.Fingerprint} (also SHA-256), so they are
    invariant under tensor-id renaming but pin names, shapes, dtypes,
    operator attributes and symbolic constraints, and cannot be aliased
    by hash collision. The bundle [id] hashes the schema, producer,
    statement fingerprints and section digests: equal ids mean equal
    certified statements and equal certificate content. *)

open Entangle_ir

val schema : int
(** The bundle format version this library reads and writes. *)

type operator_entry = {
  op_output : string;  (** name of the sequential operator's output *)
  op_mappings : Expr.t list;
      (** the clean mapping expressions found for it, over [gd] tensors *)
}

type statement = {
  fp_gs : string;
  fp_gd : string;
  fp_env : string;
  fp_inputs : string;
  fp_outputs : string;
  fp_operators : string;
}
(** The Merkle fingerprints binding a bundle to the statement it
    certifies. *)

type t = private {
  producer : string;
  gs : Graph.t;  (** the sequential graph *)
  gd : Graph.t;  (** the distributed graph *)
  env : (string * int) list;  (** concrete shape-symbol assignment *)
  inputs : (Tensor.t * Expr.t list) list;
      (** input relation: [gs] inputs → exprs over [gd] inputs *)
  outputs : (Tensor.t * Expr.t list) list;
      (** output relation: [gs] outputs → exprs over [gd] outputs *)
  operators : operator_entry list;
      (** per-operator certificate entries, one per [gs] node *)
  statement : statement;  (** the content's statement fingerprints *)
  section_digests : (string * string) list;
      (** each section's name and content digest, in wire order *)
  id : string;  (** the content address *)
}
(** A bundle value carries what was hashed for it. {!make} and
    {!of_sexp} compute [statement], [section_digests] and [id] once,
    when they build the value, with one Merkle pass per graph
    ({!Entangle_fingerprint.Fingerprint.graph} reads the env that the
    relation fingerprints use); {!to_sexp}, {!statement}, {!id} and the
    verifier read the fields. The type is private, so no other code can
    pair content with hashes it did not produce. *)

val make :
  producer:string ->
  gs:Graph.t ->
  gd:Graph.t ->
  env:(string * int) list ->
  inputs:(Tensor.t * Expr.t list) list ->
  outputs:(Tensor.t * Expr.t list) list ->
  operators:operator_entry list ->
  unit ->
  t
(** The bundle of this content: renders and digests each section, and
    fingerprints the statement. *)

val statement : t -> statement
(** The [statement] field. *)

val statement_fields : statement -> (string * string) list

val id : t -> string
(** The bundle's content address: the [id] field. *)

val to_sexp : t -> Sexp.t
(** The wire form; the manifest is the value's fields, so nothing is
    hashed. *)

val to_string : t -> string

val of_sexp : Sexp.t -> (t, Cert_error.t) result

val of_string : string -> (t, Cert_error.t) result
(** Parse and integrity-check a bundle: framing ([CERT001]), version
    ([CERT002]), structure ([CERT003]), per-section content digests
    ([CERT004]) and statement binding ([CERT005]). A bundle returned
    [Ok] is well-formed and self-consistent; it has {e not} yet been
    semantically verified — that is {!Verify.check}.

    Only canonical bundles, the ones {!to_string} writes, are accepted.
    The manifest must list the section digests of exactly [graphs],
    [env], [relations] and [operators], in that order, and each section
    must be the one its decoded content encodes to (a leaf written as a
    bare atom, or an env value written [0x10], is [CERT003]). So the
    manifest id that [of_sexp] checks, and the value's [id], is the id
    {!make} gives the same content: one content, one address. *)
