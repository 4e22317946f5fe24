(** The trace event model.

    Every diagnostic the checker can report flows through one event
    stream: spans (begin/end pairs), counter samples and instants. The
    vocabulary is deliberately small and stable — golden tests pin the
    kinds and their ordering — and maps 1:1 onto the Chrome trace-event
    format ({!Chrome}), so a trace loads directly into [chrome://tracing]
    or Perfetto.

    {2 Event vocabulary}

    Categories ([cat]) and the events emitted under each:

    - ["operator"] — one span per sequential operator processed by
      [Refine.check] (the topological step). [name] is the operator's
      op name; begin args carry [output] (the produced tensor) and
      [index] (topological position); end args carry [processed] (false
      when the relation query itself was malformed) and [mappings].
    - ["phase"] — sub-spans of an operator span: ["frontier"] (related
      subgraph growth, Listing 3) or ["load"] (whole-graph loading when
      the frontier optimization is off), ["saturate"] (end args:
      [rounds]), ["extract"] (end args: [mappings], [output_mappings]).
    - ["frontier"] — instant ["frontier-wave"] per growth wave with
      args [wave], [loaded], [t_rel].
    - ["iteration"] — one span per saturation-runner iteration. End
      args: [matches], [unions], [rules_searched], [full_searches],
      [delta_searches], [truncated], [banned], [deferred], [new_bans]
      and [cooldown] (whether a cool-down pass ran inside this
      iteration), then the iteration's split: [collect_s] (e-matching),
      [apply_s] (appliers, instantiation and unions) and [rebuild_s]
      (congruence repair), floats in seconds that together stay within
      the span, and [minor_words], the words allocated on the minor
      heap during the iteration. Instant ["cooldown"] marks the
      cool-down itself.
    - ["rule"] — instant ["rule-hit"] whenever a rule application
      merged classes (args [rule], [hits], [matches]): the replacement
      for the old [?hit_counter] side channel. Instant ["rule-ban"]
      when the backoff scheduler bans a rule (args [rule],
      [banned_until], [matches], [threshold]).
    - ["egraph"] — counter ["egraph"] sampling e-graph growth (args
      [nodes], [classes]); emitted once per runner iteration and once
      per operator after saturation.
    - ["cache"] — the certificate cache, when a check has one. Span
      ["cache-lookup"] inside an operator span (no args) around the
      store read and certificate replay, then one instant per operator
      saying how its relation was obtained: ["cache-hit"],
      ["cache-miss"] or ["cache-replay-failed"] (arg [operator]). Span
      ["cache-store"] once per check that recorded entries, after its
      last operator span: the write of those entries as one pack; end
      args [entries] and [bytes] (the bytes written, [0] when the
      write failed).
    - ["retry"] — span ["escalation"] around one escalation rung of an
      operator whose budget tripped. Begin args [operator], [rung],
      [scale] and [exhausted] (the budget's name); end arg [resolved]
      (whether the rung found a mapping).
    - ["budget"] — instant ["budget-trip"] when an operator's
      saturation loop stops on an exhausted budget (args [budget],
      [operator], [rounds]).
    - ["serve"] — the daemon's dispatch of one request: a span named
      after the request kind, with the request's [id] in its begin
      and end args. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type phase =
  | Begin  (** span open — Chrome ["B"] *)
  | End  (** span close — Chrome ["E"] *)
  | Counter  (** counter sample — Chrome ["C"] *)
  | Instant  (** point event — Chrome ["i"] *)

type t = {
  name : string;
  cat : string;
  phase : phase;
  ts : float;  (** seconds since the epoch ([Unix.gettimeofday]) *)
  tid : int;
      (** emitting track: [1] on the initial domain, [domain id + 1]
          on any other — each domain gets its own Perfetto track *)
  args : (string * value) list;
}

val current_tid : unit -> int
(** The track id {!Sink} stamps on events emitted from the calling
    domain: the domain id shifted so the initial domain is [1]. *)

val phase_letter : phase -> string
(** The Chrome trace-event [ph] field: ["B"], ["E"], ["C"] or ["i"]. *)

val arg_int : t -> string -> int option
val arg_float : t -> string -> float option
val arg_str : t -> string -> string option
val arg_bool : t -> string -> bool option

val pp : t Fmt.t
(** Timestamp-free rendering ([B operator matmul output=C index=0]),
    suitable for golden tests: the volatile [ts] field is scrubbed. *)
