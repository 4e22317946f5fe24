(** Structured rejection taxonomy for certificate bundles.

    Every way a bundle can fail verification maps to exactly one code,
    so tamper tests (and remote peers) can assert {e which} defense
    fired rather than pattern-match message strings. The codes are
    ordered by verification stage: framing (001–002), integrity
    (003–005), then the semantic checks of the minimal verifier
    (006–010). *)

type code =
  | Parse_error  (** CERT001 — not a well-formed bundle s-expression
                     (including truncation). *)
  | Version_skew  (** CERT002 — the [schema] field is not a version
                      this verifier speaks. *)
  | Manifest_malformed
      (** CERT003 — manifest or section structure is damaged: missing
          or duplicate sections, unparsable digests, graphs or
          expressions that do not decode; or the bundle is not
          canonical: a manifest section list other than [graphs],
          [env], [relations], [operators] in that order, or a section
          that is not the encoding of its decoded content. *)
  | Section_corrupt
      (** CERT004 — a section's recomputed content digest differs from
          the manifest (byte corruption / bit flip). *)
  | Statement_mismatch
      (** CERT005 — the manifest's statement fingerprints (or the
          bundle id) do not match the fingerprints recomputed from the
          carried graphs/env/relations: the bundle was rebound to a
          different statement than it certifies. *)
  | Incomplete
      (** CERT006 — a required mapping is missing: an uncovered
          sequential input/output/operator, or an unbound shape
          symbol. *)
  | Unclean  (** CERT007 — a certificate expression uses a non-clean
                 operator. *)
  | Leaf_out_of_scope
      (** CERT008 — an expression leaf resolves outside its allowed
          tensor set (input exprs over [gd] inputs, output exprs over
          [gd] outputs, operator exprs over [gd] tensors). *)
  | Shape_mismatch
      (** CERT009 — an expression's inferred shape is not provably
          equal to the shape of the tensor it maps. *)
  | Replay_mismatch
      (** CERT010 — concrete replay of the output relation disagrees
          numerically with the sequential graph. *)

val code_string : code -> string
(** ["CERT001"] … ["CERT010"]. *)

val mnemonic : code -> string
(** Short kebab-case name, e.g. ["section-corrupt"]. *)

type t = { code : code; detail : string }

val make : code -> string -> t
val pp : t Fmt.t
val to_string : t -> string

val names : string list -> string
(** The first three names, each rendered as {!Entangle_ir.Sexp.excerpt}
    renders an atom (so at most 200 bytes), then how many more there
    are: a detail that names tensors of a hostile bundle stays
    bounded. *)

val excerpt : 'a Fmt.t -> 'a -> string
(** [x] as [pp] prints it, cut after
    {!Entangle_ir.Sexp.excerpt_bytes} bytes and marked ["..."]: how a
    detail quotes an expression, a shape or a message built from a
    hostile bundle. *)
