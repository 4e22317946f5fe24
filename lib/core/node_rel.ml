open Entangle_ir
open Entangle_egraph
module Sink = Entangle_trace.Sink
module Event = Entangle_trace.Event

type outcome = {
  mappings : Expr.t list;
  output_mappings : Expr.t list;
  exhausted : Runner.budget option;
}

(* Load one distributed node's defining equation into the e-graph:
   leaf(output) = op(leaf(inputs)). *)
let load_definition g node =
  let out = Egraph.add_leaf g (Node.output node) in
  let def =
    Egraph.add_op g (Node.op node)
      (List.map (Egraph.add_leaf g) (Node.inputs node))
  in
  ignore (Egraph.union g out def)

(* Fold over the leaves of a relation entry, repeats included: its
   sequential tensor and its mappings' leaves. Seeded, two entries whose
   leaves meet share an e-class. *)
let fold_entry_leaves f acc (t, es) =
  List.fold_left (Expr.fold_leaves f) (f acc t) es

let related_seeds ~inputs ~held seeds =
  let entries = Array.of_list seeds in
  let by_leaf = Hashtbl.create (Array.length entries) in
  Array.iteri
    (fun i e ->
      fold_entry_leaves (fun () l -> Hashtbl.add by_leaf (Tensor.id l) i) () e)
    entries;
  let kept = Array.make (Array.length entries) false in
  (* Reach tensors: keep every entry each is a leaf of, and go on through
     the leaves of the entries kept. A tensor's bindings go when it is
     first reached, so the walk is linear in the entries' leaves. *)
  let rec reach = function
    | [] -> ()
    | t :: todo ->
        let id = Tensor.id t in
        let found = Hashtbl.find_all by_leaf id in
        List.iter (fun _ -> Hashtbl.remove by_leaf id) found;
        reach
          (List.fold_left
             (fun todo i ->
               if kept.(i) then todo
               else begin
                 kept.(i) <- true;
                 fold_entry_leaves (Fun.flip List.cons) todo entries.(i)
               end)
             todo found)
  in
  reach inputs;
  Tensor.Set.iter (fun t -> reach [ t ]) held;
  List.filteri (fun i _ -> kept.(i)) seeds

let compute ~config ?deadline ~sink ~rules ~gd ~relation ~seeds v =
  let store = Graph.constraints gd in
  let g = Egraph.create ~constraints:store () in
  let limits =
    let l = config.Config.limits in
    (* Merge the caller's absolute deadline with any already in the
       configured limits; the runner checks the earlier of the two. *)
    match (l.Runner.deadline, deadline) with
    | _, None -> l
    | None, Some d -> { l with Runner.deadline = Some d }
    | Some a, Some b -> { l with Runner.deadline = Some (Float.min a b) }
  in
  (* Base expression: v applied to its (sequential) input tensors. *)
  let input_ids = List.map (Egraph.add_leaf g) (Node.inputs v) in
  let base = Egraph.add_op g (Node.op v) input_ids in
  let missing =
    List.filter (fun t -> Relation.find relation t = []) (Node.inputs v)
  in
  match missing with
  | t :: _ ->
      Error
        (Fmt.str "input %a of operator %a has no mapping in the relation"
           Tensor.pp_name t Node.pp v)
  | [] ->
      (* What the search loads of the distributed graph, decided before
         seeding. With the frontier optimization (Listing 3) it is the
         cone of the tensors [v]'s input mappings reach, wave by wave;
         without it (Listing 2), the whole graph. *)
      let anchors =
        Graph.anchors gd (List.map (Relation.find relation) (Node.inputs v))
      in
      let waves =
        if config.Config.frontier_optimization then Graph.cone gd ~anchors
        else [ Graph.nodes gd ]
      in
      let held =
        List.fold_left
          (fun acc n ->
            List.fold_left (Fun.flip Tensor.Set.add) acc
              (Node.output n :: Node.inputs n))
          anchors (List.concat waves)
      in
      (* Seed the e-graph: each seeded sequential tensor is one class
         with its mappings. Only the entries connected to what the
         search loads go in; the rest would be e-classes no rewrite can
         join to [v]'s (see [related_seeds] in the interface). *)
      List.iter
        (fun (t, exprs) ->
          let leaf = Egraph.add_leaf g t in
          List.iter
            (fun expr -> ignore (Egraph.union g leaf (Egraph.add_expr g expr)))
            exprs)
        (related_seeds ~inputs:(Node.inputs v) ~held seeds);
      Egraph.rebuild g;
      let is_gd = Graph.mem_tensor gd in
      let round_limits =
        { limits with Runner.max_iterations = 1 }
      in
      (* One scheduler state for all of this operator's rounds: the
         per-rule last-search generations survive across the
         one-iteration [Runner.run] calls below, so every round after
         the first re-matches only classes dirtied since the rule's
         previous search. *)
      let state = Runner.create_state rules in
      let rounds_used = ref 0 in
      let one_round ~confirm =
        incr rounds_used;
        Runner.run ~limits:round_limits ~confirm_saturation:confirm ~sink
          ~state g (Runner.rules rules)
      in
      let have_mapping () =
        Option.is_some (Extract.best_clean g ~leaf_ok:is_gd base)
      in
      if config.Config.frontier_optimization then
        Sink.span sink ~cat:"phase" "frontier" (fun () ->
            (* Listing 3: load the distributed subgraph related to v,
               the cone of the tensors its inputs' mappings reach, wave
               by wave. T_rel, which the trace reports, is the anchors
               plus the outputs loaded so far. *)
            let t_rel = ref anchors in
            List.iteri
              (fun i wave ->
                List.iter (load_definition g) wave;
                if Sink.enabled sink then begin
                  t_rel :=
                    List.fold_left
                      (fun acc n -> Tensor.Set.add (Node.output n) acc)
                      !t_rel wave;
                  Sink.instant sink "frontier-wave" ~cat:"frontier"
                    ~args:
                      [
                        ("wave", Event.Int (i + 1));
                        ("loaded", Event.Int (List.length wave));
                        ("t_rel", Event.Int (Tensor.Set.cardinal !t_rel));
                      ]
                end)
              waves;
            Egraph.rebuild g)
      else
        Sink.span sink ~cat:"phase" "load" (fun () ->
            (* Unoptimized Listing 2: load the whole distributed
               graph. *)
            List.iter (List.iter (load_definition g)) waves;
            Egraph.rebuild g);
      (* Saturate round by round, stopping shortly after a clean mapping
         for v's output exists. Running to full saturation is wasted
         work once the relation entry is derivable, and the extra
         rounds mostly manufacture alternative decompositions whose
         number can grow combinatorially. The two settling rounds let
         simpler or output-grounded forms appear.

         The return value is why the loop stopped: [Some b] when budget
         [b] ran out before a mapping or saturation (the inconclusive
         outcome escalation retries), [None] otherwise. Per-round
         reports trip [Iterations] by construction (round limits cap
         each run at one iteration), so only the loop-level round count
         maps to [Iterations]; growth, deadline and heap trips are
         taken from the runner's report. *)
      let deadline_passed () =
        match limits.Runner.deadline with
        | Some d -> Unix.gettimeofday () > d
        | None -> false
      in
      let hard_trip (r : Runner.report) =
        match r.Runner.tripped with
        | Some (Runner.Nodes | Runner.Classes | Runner.Deadline | Runner.Heap)
          ->
            r.Runner.tripped
        | Some Runner.Iterations | None -> None
      in
      let rec saturate_rounds settling =
        if !rounds_used >= limits.Runner.max_iterations then
          Some Runner.Iterations
        else if Egraph.num_nodes g > limits.Runner.max_nodes then
          Some Runner.Nodes
        else if deadline_passed () then Some Runner.Deadline
        else begin
          let report = one_round ~confirm:false in
          let mapped = have_mapping () in
          if report.Runner.saturated then None
          else if mapped && settling <= 0 then None
          else
            match hard_trip report with
            | Some b -> if mapped then None else Some b
            | None ->
                if report.Runner.unions = 0 then begin
                  (* Fixpoint candidate handed back unconfirmed (see
                     {!Runner.run} [confirm_saturation]). With a clean
                     mapping already in hand, the deferred constrained
                     rules could only ratify equalities between existing
                     terms — more alternative forms, not new
                     reachability — so stop here and keep the cool-down
                     unpaid. Without a mapping, ask for confirmation:
                     the constrained rules may be exactly what unblocks
                     the derivation, and only a confirmed [saturated]
                     justifies reporting failure. *)
                  if mapped then None
                  else begin
                    let report2 = one_round ~confirm:true in
                    if report2.Runner.saturated then None
                    else
                      match hard_trip report2 with
                      | Some b ->
                          if have_mapping () then None else Some b
                      | None ->
                          if report2.Runner.unions = 0 then None
                          else saturate_rounds settling
                  end
                end
                else saturate_rounds (if mapped then settling - 1 else settling)
        end
      in
      Sink.span_begin sink ~cat:"phase" "saturate";
      let exhausted = saturate_rounds 2 in
      (match exhausted with
      | Some b when Sink.enabled sink ->
          Sink.instant sink "budget-trip" ~cat:"budget"
            ~args:
              [
                ("budget", Event.Str (Runner.budget_name b));
                ("operator", Event.Str (Op.name (Node.op v)));
                ("rounds", Event.Int !rounds_used);
              ]
      | _ -> ());
      Sink.span_end sink ~cat:"phase" "saturate"
        ~args:[ ("rounds", Event.Int !rounds_used) ];
      (* A growth sample at the operator's final e-graph: num_nodes is
         monotone, so this is the operator's node peak; classes can
         shrink through merges, so mid-iteration samples (emitted by the
         runner) may exceed it. *)
      if Sink.enabled sink then
        Sink.counter sink "egraph" ~cat:"egraph"
          ~args:
            [
              ("nodes", Event.Int (Egraph.num_nodes g));
              ("classes", Event.Int (Egraph.num_classes g));
            ];
      Sink.span_begin sink ~cat:"phase" "extract";
      (* Step 4: extract clean expressions for v's output. Every
         distributed leaf in the class is itself a (cost-zero) clean
         mapping; recording them all keeps replicated values visible to
         later operators (a relation may map a tensor several times,
         section 3.2). *)
      let leaf_mappings =
        List.filter_map
          (fun n ->
            match Enode.sym n with
            | Enode.Leaf t when is_gd t -> Some (Expr.leaf t)
            | _ -> None)
          (Egraph.nodes_of g base)
      in
      let best_any = Extract.best_clean g ~leaf_ok:is_gd base in
      let best_output =
        Extract.best_clean g ~leaf_ok:(Graph.is_output gd) base
      in
      (* Alternative canonical forms: a rearrangement-only expression
         (concat of shards rather than a sum of partials) and a
         structured expression that avoids leaves of the class itself.
         Recording several forms is what lets later operators choose the
         one their lemma needs — the C |-> sum(C1,C2) versus
         C |-> concat(D1,D2) situation of the paper's running example. *)
      let rearrange_only op =
        Op.is_clean op
        && match op with Op.Sum_n | Op.All_reduce -> false | _ -> true
      in
      let best_rearrange =
        Extract.best_filtered g ~node_ok:rearrange_only ~leaf_ok:is_gd base
      in
      let base_cls = Egraph.find g base in
      let non_self t =
        is_gd t
        &&
        match Egraph.leaf_id g t with
        | Some cls -> not (Id.equal (Egraph.find g cls) base_cls)
        | None -> true
      in
      let best_structured = Extract.best_clean g ~leaf_ok:non_self base in
      let best_structured_rearrange =
        Extract.best_filtered g ~node_ok:rearrange_only ~leaf_ok:non_self base
      in
      let dedup exprs =
        List.fold_left
          (fun acc e ->
            if List.exists (Expr.equal e) acc then acc else acc @ [ e ])
          [] exprs
      in
      let mappings =
        dedup
          (leaf_mappings @ Option.to_list best_any
          @ Option.to_list best_rearrange
          @ Option.to_list best_structured
          @ Option.to_list best_structured_rearrange
          @ Option.to_list best_output)
      in
      let output_mappings = dedup (Option.to_list best_output) in
      Sink.span_end sink ~cat:"phase" "extract"
        ~args:
          [
            ("mappings", Event.Int (List.length mappings));
            ("output_mappings", Event.Int (List.length output_mappings));
          ];
      Ok { mappings; output_mappings; exhausted }
