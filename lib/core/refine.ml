open Entangle_ir
module Trace = Entangle_trace
module Sink = Trace.Sink
module Event = Trace.Event
module Runner = Entangle_egraph.Runner
module Failpoint = Entangle_failpoint.Failpoint
module Cache = Entangle_cache.Cache

type stats = {
  operators_processed : int;
  saturation_iterations : int;
  egraph_nodes_peak : int;
  egraph_classes_peak : int;
  matches_examined : int;
  unions_applied : int;
  rule_hits : (string * int) list;
  retries : int;
  budget_trips : int;
  cache_hits : int;
  cache_misses : int;
  cache_replays_failed : int;
  wall_time_s : float;
}

type scope = Operator_scope | Check_scope

type exhausted = {
  budget : Runner.budget;
  scope : scope;
  retries_used : int;
}

type error = {
  exn : string;
  backtrace : string;
  failpoint : string option;
}

type verdict =
  | Unmapped of string
  | Inconclusive of exhausted
  | Internal of error

type fault = {
  fault_operator : Node.t;
  fault_verdict : verdict;
  fault_input_mappings : (Tensor.t * Expr.t list) list;
}

type success = {
  output_relation : Relation.t;
  full_relation : Relation.t;
  cache_provenance : (Node.t * Cache.provenance) list;
  stats : stats;
}

type failure = {
  operator : Node.t;
  verdict : verdict;
  faults : fault list;
  dependents_skipped : Node.t list;
  partial_relation : Relation.t;
  input_mappings : (Tensor.t * Expr.t list) list;
  cache_provenance : (Node.t * Cache.provenance) list;
  stats : stats;
}

let pp_verdict ppf = function
  | Unmapped msg -> Fmt.string ppf msg
  | Inconclusive e ->
      Fmt.pf ppf
        "inconclusive: the %s budget was exhausted %s%s — the search ran out \
         of resources before either finding a clean relation or proving one \
         absent"
        (Runner.budget_name e.budget)
        (match e.scope with
        | Operator_scope -> "on this operator"
        | Check_scope -> "for the whole check")
        (if e.retries_used = 0 then ""
         else Fmt.str " (after %d escalation retr%s)" e.retries_used
             (if e.retries_used = 1 then "y" else "ies"))
  | Internal e ->
      Fmt.pf ppf "internal error: %s%s"
        e.exn
        (match e.failpoint with
        | Some fp -> Fmt.str " (injected at failpoint %s)" fp
        | None -> "")

let verdict_to_string v = Fmt.str "%a" pp_verdict v

let exit_code = function
  | Ok _ -> 0
  | Error f -> (
      match f.verdict with
      | Unmapped _ -> 1
      | Inconclusive _ -> 2
      | Internal _ -> 3)

let stats_of_agg ~wall_time_s agg =
  {
    operators_processed = Trace.Agg.operators agg;
    saturation_iterations = Trace.Agg.iterations agg;
    egraph_nodes_peak = Trace.Agg.nodes_peak agg;
    egraph_classes_peak = Trace.Agg.classes_peak agg;
    matches_examined = Trace.Agg.matches agg;
    unions_applied = Trace.Agg.unions agg;
    rule_hits = Trace.Agg.rule_hits agg;
    retries = Trace.Agg.retries agg;
    budget_trips = Trace.Agg.budget_trips agg;
    cache_hits = Trace.Agg.cache_hits agg;
    cache_misses = Trace.Agg.cache_misses agg;
    cache_replays_failed = Trace.Agg.cache_replays_failed agg;
    wall_time_s;
  }

let stats_of_events ?(wall_time_s = 0.) events =
  let agg = Trace.Agg.create () in
  let sink = Trace.Agg.sink agg in
  List.iter (Sink.emit sink) events;
  stats_of_agg ~wall_time_s agg

let check ?(config = Config.default) ?rules ~gs ~gd ~input_relation () =
  if not (Relation.is_clean input_relation) then
    invalid_arg "Refine.check: input relation contains non-clean expressions";
  let lint which g =
    let module A = Entangle_analysis in
    let errors = List.filter A.Diagnostic.is_error (A.Graph_check.check g) in
    if errors <> [] then
      invalid_arg
        (Fmt.str "Refine.check: %s graph %s is malformed:@.%a" which
           (Graph.name g) A.Diagnostic.pp_report errors)
  in
  lint "sequential" gs;
  lint "distributed" gd;
  let rules =
    match rules with
    | Some r -> r
    | None -> Entangle_lemmas.Lemma.rules Entangle_lemmas.Registry.all
  in
  (* The certificate cache, when configured: one context per check
     (fingerprint environments over both graphs). [context] refuses
     graphs whose tensor names are ambiguous, in which case the check
     silently runs uncached. *)
  let cache_ctx =
    match config.Config.cache with
    | None -> None
    | Some cache ->
        (* The client namespace partitions the key space without being
           a search knob: suffix it onto the configuration fingerprint
           rather than into [search_fingerprint] itself, so the empty
           namespace keys exactly as every pre-namespace release. *)
        let config_fp =
          match config.Config.cache_namespace with
          | "" -> Config.search_fingerprint config
          | ns -> Config.search_fingerprint config ^ ";namespace=" ^ ns
        in
        Cache.context cache ~config_fp
          ~whole_graph:(not config.Config.frontier_optimization)
          ~rules ~gs ~gd
  in
  (* Statistics are a fold over the same event stream any configured
     trace sink receives: the aggregator is itself a sink, teed with
     [config.trace], so [stats] and a collected trace are projections
     of identical events and cannot disagree. *)
  let agg = Trace.Agg.create () in
  let sink = Sink.tee (Trace.Agg.sink agg) config.Config.trace in
  let t0 = Unix.gettimeofday () in
  let check_deadline =
    Option.map (fun s -> t0 +. s) config.Config.check_deadline_s
  in
  let past_check_deadline () =
    match check_deadline with
    | Some d -> Unix.gettimeofday () > d
    | None -> false
  in
  (* Absolute deadline for one operator attempt: a fresh per-operator
     allowance (each escalation rung gets its own), clamped by the
     whole-check deadline. *)
  let attempt_deadline () =
    let now = Unix.gettimeofday () in
    match (config.Config.op_deadline_s, check_deadline) with
    | None, None -> None
    | Some s, None -> Some (now +. s)
    | None, Some d -> Some d
    | Some s, Some d -> Some (Float.min (now +. s) d)
  in
  let stats () = stats_of_agg ~wall_time_s:(Unix.gettimeofday () -. t0) agg in
  (* The cache entries a check records are written together, as one
     pack, when it ends: before its statistics are taken, or when it
     raises. *)
  let store_cache () =
    match cache_ctx with
    | Some ctx when Cache.pending ctx > 0 ->
        let entries = Cache.pending ctx in
        if Sink.enabled sink then
          Sink.span_begin sink ~cat:"cache" "cache-store";
        let bytes = Cache.flush ctx in
        if Sink.enabled sink then
          Sink.span_end sink ~cat:"cache" "cache-store"
            ~args:[ ("entries", Event.Int entries); ("bytes", Event.Int bytes) ]
    | _ -> ()
  in
  let final_stats () =
    store_cache ();
    stats ()
  in
  let cache_log = ref [] in
  (* Record how [v]'s relation was obtained, for [cache_provenance] and
     as a [cat:"cache"] instant. *)
  let note v p =
    cache_log := (v, p) :: !cache_log;
    if Sink.enabled sink then
      Sink.instant sink
        (match p with
        | Cache.Hit -> "cache-hit"
        | Cache.Miss -> "cache-miss"
        | Cache.Replay_failed _ -> "cache-replay-failed")
        ~cat:"cache"
        ~args:[ ("operator", Event.Str (Op.name (Node.op v))) ]
  in
  let mappings_of v relation =
    List.map (fun t -> (t, Relation.find relation t)) (Node.inputs v)
  in
  (* What the saturation scheduler reads of each rule, derived once for
     the whole check rather than once per operator's e-graph. *)
  let rule_index = Runner.index rules in
  (* The relation entries an operator's search may seed, all of which
     its cache key covers: the mappings of [v]'s inputs plus those of
     every sequential graph input (weights and activations). Entries
     with several mappings (replicated tensors) carry equivalences
     between distributed tensors that are otherwise only derivable
     through the sequential tensor, and replicated weights are
     referenced by operators arbitrarily far downstream. The search
     seeds only the entries connected to what it loads
     ([Node_rel.related_seeds]): a function of these entries and of the
     cone the key hashes too, so equal keys still load equal content.
     The mappings it finds are those of a search that seeds every entry
     as measured on the corpus, not as proven: scheduling and the
     e-graph's class-table iteration order count the dropped classes
     too (DESIGN.md, algorithm engineering item 7).
     Mappings of unrelated intermediates are skipped, keeping the
     per-operator e-graph size independent of how much of the model was
     already processed. Entries come in [Relation.bindings] order
     (ascending tensor id), with the relation's own mapping lists: the
     cache key's per-check digest recognizes the graph-input entries by
     physical equality. *)
  let seeds_of v relation =
    List.filter_map
      (fun t ->
        match Relation.find relation t with [] -> None | es -> Some (t, es))
      (List.sort_uniq Tensor.compare (Node.inputs v @ Graph.inputs gs))
  in
  let mk_fault v verdict relation =
    {
      fault_operator = v;
      fault_verdict = verdict;
      fault_input_mappings = mappings_of v relation;
    }
  in
  (* [faults] arrives earliest-first; the failure's scalar
     [operator]/[verdict]/[input_mappings] mirror the first fault — the
     operator that localizes the (first) bug, as before. *)
  let finalize relation faults skipped =
    match faults with
    | [] -> assert false
    | first :: _ ->
        Error
          {
            operator = first.fault_operator;
            verdict = first.fault_verdict;
            faults;
            dependents_skipped = List.rev skipped;
            partial_relation = relation;
            input_mappings = first.fault_input_mappings;
            cache_provenance = List.rev !cache_log;
            stats = final_stats ();
          }
  in
  let op_begin index v =
    if Sink.enabled sink then
      Sink.span_begin sink ~cat:"operator"
        (Op.name (Node.op v))
        ~args:
          [
            ("output", Event.Str (Fmt.str "%a" Tensor.pp_name (Node.output v)));
            ("index", Event.Int index);
          ]
  in
  let op_end ~processed ~mappings v =
    if Sink.enabled sink then
      Sink.span_end sink ~cat:"operator"
        (Op.name (Node.op v))
        ~args:
          [
            ("processed", Event.Bool processed);
            ("mappings", Event.Int mappings);
          ]
  in
  let no_mapping_msg v =
    Fmt.str
      "could not map outputs for operator %s: no clean expression over the \
       distributed graph reconstructs %a"
      (Op.name (Node.op v))
      Tensor.pp_name (Node.output v)
  in
  let unexposed_output_msg out =
    Fmt.str
      "graph output %a maps into the distributed graph but not to its \
       outputs: the value is computed yet never exposed"
      Tensor.pp_name out
  in
  (* An opaque stand-in bound to a faulty operator's output under
     [keep_going], so the partial relation stays total and the hole is
     visible by name in reports. *)
  let opaque t =
    Expr.leaf
      (Tensor.create
         ~name:(Fmt.str "%%opaque:%a" Tensor.pp_name t)
         (Tensor.shape t))
  in
  (* One operator, through the escalation ladder. This is the no-escape
     boundary: any exception raised by the per-operator computation
     (rewrite appliers, the symbolic decision procedure, e-graph
     invariant hooks, injected failpoints) is caught here and reported
     as an [Internal] verdict localized to [v]. Precondition violations
     detected before the loop ([Invalid_argument] on unclean input) are
     deliberately NOT routed through this: they are documented raises. *)
  let search_operator v relation seeds =
    let attempt scale =
      let cfg =
        match scale with
        | None -> config
        | Some k ->
            {
              config with
              Config.limits = Runner.scale_limits k config.Config.limits;
            }
      in
      match
        Node_rel.compute ~config:cfg ?deadline:(attempt_deadline ()) ~sink
          ~rules:rule_index ~gd ~relation ~seeds v
      with
      | Ok o -> Ok o
      | Error msg -> Error (Unmapped msg)
      | exception e ->
          let backtrace = Printexc.get_backtrace () in
          let failpoint =
            match e with Failpoint.Injected name -> Some name | _ -> None
          in
          Error (Internal { exn = Printexc.to_string e; backtrace; failpoint })
    in
    let rec go retries scale rungs =
      match attempt scale with
      | Error verdict -> `Fail verdict
      | Ok o ->
          if o.Node_rel.mappings <> [] then `Found o
          else (
            match o.Node_rel.exhausted with
            | None ->
                (* Saturated with no mapping: provably absent under the
                   given rules, however much budget we add. This is the
                   one negative outcome worth caching: saturation is
                   deterministic for a fixed key. *)
                `Absent
            | Some b ->
                if past_check_deadline () then
                  `Fail
                    (Inconclusive
                       {
                         budget = Runner.Deadline;
                         scope = Check_scope;
                         retries_used = retries;
                       })
                else (
                  match rungs with
                  | [] ->
                      `Fail
                        (Inconclusive
                           {
                             budget = b;
                             scope = Operator_scope;
                             retries_used = retries;
                           })
                  | k :: rest ->
                      if Sink.enabled sink then
                        Sink.span_begin sink ~cat:"retry" "escalation"
                          ~args:
                            [
                              ("operator", Event.Str (Op.name (Node.op v)));
                              ("rung", Event.Int (retries + 1));
                              ("scale", Event.Int k);
                              ( "exhausted",
                                Event.Str (Runner.budget_name b) );
                            ];
                      let res = go (retries + 1) (Some k) rest in
                      if Sink.enabled sink then
                        Sink.span_end sink ~cat:"retry" "escalation"
                          ~args:
                            [
                              ( "resolved",
                                Event.Bool
                                  (match res with
                                  | `Found _ -> true
                                  | `Absent | `Fail _ -> false) );
                            ];
                      res))
    in
    go 0 None config.Config.escalation
  in
  (* Cache wrapper around the search: exact-key lookup, certificate
     replay on a hit, population on a miss. Only definitive outcomes
     are stored: a mapping set, or provable absence at saturation.
     [Inconclusive]/[Internal] say nothing about the model and are
     never cached. *)
  let store_entry ctx key = function
    | `Found (o : Node_rel.outcome) ->
        Cache.put ctx ~key
          (Cache.Mapped
             {
               mappings = o.Node_rel.mappings;
               output_mappings = o.Node_rel.output_mappings;
             })
    | `Absent -> Cache.put ctx ~key Cache.Unmapped
    | `Fail _ -> ()
  in
  let check_operator v relation =
    let seeds = seeds_of v relation in
    let searched =
      match cache_ctx with
      | None -> search_operator v relation seeds
      | Some ctx -> (
          let key = Cache.key ctx ~seeds v in
          let lookup =
            Sink.span sink ~cat:"cache" "cache-lookup" (fun () ->
                Cache.find ctx ~key v)
          in
          match lookup with
          | `Hit entry -> (
              note v Cache.Hit;
              match entry with
              | Cache.Mapped { mappings; output_mappings } ->
                  `Found
                    {
                      Node_rel.mappings;
                      output_mappings;
                      exhausted = None;
                    }
              | Cache.Unmapped -> `Absent)
          | `Miss ->
              note v Cache.Miss;
              let fresh = search_operator v relation seeds in
              store_entry ctx key fresh;
              fresh
          | `Replay_failed reason ->
              note v (Cache.Replay_failed reason);
              let fresh = search_operator v relation seeds in
              store_entry ctx key fresh;
              fresh)
    in
    match searched with
    | `Found o -> Ok o
    | `Absent -> Error (Unmapped (no_mapping_msg v))
    | `Fail verdict -> Error verdict
  in
  (* Listing 1: process operators in topological order, accumulating R.
     Under [keep_going], a failing operator's output is bound to an
     opaque placeholder and tainted; operators reachable from a tainted
     tensor are skipped (their own verdict would only echo the upstream
     fault), so every reported fault is an independent localization. *)
  let taint relation output_relation tainted v =
    let out = Node.output v in
    let ph = opaque out in
    let relation = Relation.add relation out ph in
    let output_relation =
      if Graph.is_output gs out then Relation.add output_relation out ph
      else output_relation
    in
    (relation, output_relation, Tensor.Set.add out tainted)
  in
  let rec go index relation output_relation faults skipped tainted = function
    | [] -> (
        match faults with
        | [] ->
            Ok
              {
                output_relation;
                full_relation = relation;
                cache_provenance = List.rev !cache_log;
                stats = final_stats ();
              }
        | _ -> finalize relation faults skipped)
    | v :: rest ->
        if
          config.Config.keep_going
          && List.exists (fun t -> Tensor.Set.mem t tainted) (Node.inputs v)
        then begin
          (* Dependent on an earlier fault: no independent verdict
             possible. *)
          if Sink.enabled sink then
            Sink.instant sink "operator-skipped" ~cat:"operator"
              ~args:
                [
                  ("operator", Event.Str (Op.name (Node.op v)));
                  ("index", Event.Int index);
                ];
          let relation, output_relation, tainted =
            taint relation output_relation tainted v
          in
          go (index + 1) relation output_relation faults (v :: skipped)
            tainted rest
        end
        else if past_check_deadline () then
          (* The whole-check deadline is fatal: stop localizing. *)
          let fault =
            mk_fault v
              (Inconclusive
                 {
                   budget = Runner.Deadline;
                   scope = Check_scope;
                   retries_used = 0;
                 })
              relation
          in
          finalize relation (faults @ [ fault ]) skipped
        else begin
          op_begin index v;
          match check_operator v relation with
          | Error verdict -> (
              op_end ~processed:false ~mappings:0 v;
              let fault = mk_fault v verdict relation in
              let fatal =
                match verdict with
                | Inconclusive { scope = Check_scope; _ } -> true
                | _ -> false
              in
              match config.Config.keep_going && not fatal with
              | true ->
                  let relation, output_relation, tainted =
                    taint relation output_relation tainted v
                  in
                  go (index + 1) relation output_relation (faults @ [ fault ])
                    skipped tainted rest
              | false -> finalize relation (faults @ [ fault ]) skipped)
          | Ok outcome -> (
              op_end ~processed:true
                ~mappings:(List.length outcome.Node_rel.mappings)
                v;
              let out = Node.output v in
              let relation =
                Relation.add_all relation out outcome.Node_rel.mappings
              in
              if Graph.is_output gs out then
                match outcome.Node_rel.output_mappings with
                | [] ->
                    let fault =
                      mk_fault v (Unmapped (unexposed_output_msg out)) relation
                    in
                    (* The internal mapping is real, so downstream
                       operators can still use it: no taint. *)
                    if config.Config.keep_going then
                      go (index + 1) relation output_relation
                        (faults @ [ fault ]) skipped tainted rest
                    else finalize relation (faults @ [ fault ]) skipped
                | out_maps ->
                    go (index + 1) relation
                      (Relation.add_all output_relation out out_maps)
                      faults skipped tainted rest
              else
                go (index + 1) relation output_relation faults skipped tainted
                  rest)
        end
  in
  (* Sequential inputs that are also outputs pass through via identity. *)
  let output_relation0 =
    List.fold_left
      (fun acc t ->
        if Graph.is_input gs t then
          Relation.add_all acc t (Relation.find input_relation t)
        else acc)
      Relation.empty (Graph.outputs gs)
  in
  let result =
    Fun.protect ~finally:store_cache (fun () ->
        go 0 input_relation output_relation0 [] [] Tensor.Set.empty
          (Graph.nodes gs))
  in
  Sink.flush config.Config.trace;
  result
