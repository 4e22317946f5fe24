(** Top-level lint driver: composes the per-artifact passes and owns the
    exit-code policy used by [entangle_cli lint] and the [@lint] alias.

    The caller supplies the graphs (the zoo lives above this library in
    the dependency order); the lemma corpus is taken from
    {!Entangle_lemmas.Registry} directly. A [LEMMA005] warning is
    emitted per duplicated lemma name the registry deduplicated away.

    With the symbolic pass enabled ([--verify-lemmas]), lint becomes a
    {e differential} gate over the corpus: every lemma must be
    symbolically verified ({!Lemma_verify}), numerically exercised
    ({!Lemma_check}), or explicitly waived in a checked-in waiver file.
    A lemma covered by none of the three is a [LEMMA203] error; a waiver
    that names an unknown lemma, or one whose lemma verifies anyway, is
    a [LEMMA204] warning. *)

open Entangle_ir
open Entangle_lemmas

val graphs : (string * Graph.t) list -> Diagnostic.t list
(** Well-formedness of every named graph ({!Graph_check}). *)

val corpus :
  ?config:Lemma_check.config ->
  seed:int ->
  unit ->
  Diagnostic.t list * Lemma_check.stats
(** Structural + differential audit of [Registry.all], plus duplicate
    lemma names from [Registry.duplicates]. *)

val verify_corpus :
  ?config:Lemma_verify.config ->
  ?span:
    (string ->
    (unit -> Diagnostic.t list * Lemma_verify.lemma_report) ->
    Diagnostic.t list * Lemma_verify.lemma_report) ->
  unit ->
  Diagnostic.t list * Lemma_verify.report
(** Symbolic bounded verification of [Registry.all]. *)

val parse_waivers : string -> ((string * string) list, string) result
(** Parse waiver-file content: one [lemma-name: reason] per line, [#]
    starts a comment, blank lines ignored. [Error] describes every
    malformed line. *)

type coverage_row = {
  lemma : string;
  klass : Lemma.klass;
  symbolic : Lemma_verify.verdict;
  exercised : bool;  (** the numeric audit compared it at least once *)
  waived : string option;  (** waiver reason, when listed *)
}

type coverage = {
  rows : coverage_row list;  (** corpus order *)
  sym_verified : int;
  num_exercised : int;
  waived : int;
  gaps : int;  (** lemmas covered by no mechanism (LEMMA203 errors) *)
}

val coverage :
  report:Lemma_verify.report ->
  stats:Lemma_check.stats ->
  waivers:(string * string) list ->
  Diagnostic.t list * coverage
(** Combine the two gates and the waiver list into the per-lemma
    coverage table plus LEMMA203/LEMMA204 diagnostics. *)

val pp_coverage : (int * coverage) Fmt.t
(** Render the table; the [int] is the verifier's rank bound. *)

val coverage_to_json : int * coverage -> Entangle_trace.Jsonw.t

val exit_code : Diagnostic.t list -> int
(** [0] when no diagnostic has error severity, [1] otherwise. *)
