open Entangle_symbolic
open Entangle_ir
open Entangle_egraph

let shape_is_concrete shape =
  let ok = ref true in
  for d = 0 to Shape.rank shape - 1 do
    if Symdim.to_int (Shape.dim shape d) = None then ok := false
  done;
  !ok

(* Shape of one canonicalized node, re-derived from its children's class
   shapes; [None] when a child class has no shape or inference fails
   (the analysis itself gives up there too, so nothing to compare). *)
let node_shape g node =
  match Enode.sym node with
  | Enode.Leaf t -> Some (Tensor.shape t)
  | Enode.Op op ->
      let child_shapes =
        List.map (fun c -> Egraph.shape_of g c) (Enode.children node)
      in
      if List.exists Option.is_none child_shapes then None
      else
        let child_shapes = List.filter_map Fun.id child_shapes in
        (match Op.infer_shape (Egraph.constraints g) op child_shapes with
        | Ok s -> Some s
        | Error _ -> None)

let check g =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  (if Egraph.Debug.pending_count g > 0 then
     emit
       (Diagnostic.error ~code:"EGRAPH001" Diagnostic.Egraph
          "%d pending union(s): rebuild has not been run, congruence may \
           not hold"
          (Egraph.Debug.pending_count g)));
  match Egraph.Debug.uf_check_acyclic g with
  | Error id ->
      (* Any [find] below would diverge on a cyclic parent chain; there
         is nothing more to check soundly. *)
      emit
        (Diagnostic.error ~code:"EGRAPH002"
           (Diagnostic.Eclass (Id.to_int id))
           "union-find parent chain starting at id %d is cyclic"
           (Id.to_int id));
      Diagnostic.sort (List.rev !diags)
  | Ok () ->
      let class_ids = Egraph.class_ids g in
      List.iter
        (fun id ->
          let canon = Egraph.find g id in
          if not (Id.equal canon id) then
            emit
              (Diagnostic.error ~code:"EGRAPH003"
                 (Diagnostic.Eclass (Id.to_int id))
                 "class table holds non-canonical id %d (canonical: %d)"
                 (Id.to_int id) (Id.to_int canon)))
        class_ids;
      (* Hashcons: every entry's key must stay canonical and its class
         must actually contain the node. *)
      List.iter
        (fun (node, id) ->
          let canon_node = Enode.map_children (Egraph.find g) node in
          if not (Enode.equal canon_node node) then
            emit
              (Diagnostic.error ~code:"EGRAPH004"
                 (Diagnostic.Eclass (Id.to_int (Egraph.find g id)))
                 "stale hashcons key %s: children are not canonical"
                 (Fmt.str "%a" Enode.pp node));
          match Egraph.nodes_of g (Egraph.find g id) with
          | nodes ->
              if not (List.exists (Enode.equal canon_node) nodes) then
                emit
                  (Diagnostic.error ~code:"EGRAPH004"
                     (Diagnostic.Eclass (Id.to_int (Egraph.find g id)))
                     "hashcons maps %s to class %d, which does not contain \
                      the node"
                     (Fmt.str "%a" Enode.pp node)
                     (Id.to_int (Egraph.find g id)))
          | exception (Invalid_argument _ | Not_found) ->
              emit
                (Diagnostic.error ~code:"EGRAPH004"
                   (Diagnostic.Eclass (Id.to_int id))
                   "hashcons maps %s to id %d, which is not a class"
                   (Fmt.str "%a" Enode.pp node)
                   (Id.to_int id)))
        (Egraph.Debug.memo_entries g);
      (* Congruence: after rebuild, a canonical node may live in at most
         one class. *)
      let owner = Enode.Tbl.create 256 in
      Egraph.iter_nodes g (fun id node ->
          let id = Egraph.find g id in
          match Enode.Tbl.find_opt owner node with
          | None -> Enode.Tbl.replace owner node id
          | Some other when Id.equal other id -> ()
          | Some other ->
              emit
                (Diagnostic.error ~code:"EGRAPH005"
                   (Diagnostic.Eclass (Id.to_int id))
                   "congruence violation: canonical node %s is in classes \
                    %d and %d"
                   (Fmt.str "%a" Enode.pp node)
                   (Id.to_int other) (Id.to_int id)));
      (* Shape analysis: every node of a class must agree with the
         class's shape. *)
      List.iter
        (fun id ->
          let id = Egraph.find g id in
          match Egraph.shape_of g id with
          | None -> ()
          | Some class_shape ->
              List.iter
                (fun node ->
                  match node_shape g node with
                  | None -> ()
                  | Some node_sh ->
                      if
                        not
                          (Shape.equal (Egraph.constraints g) class_shape
                             node_sh)
                      then
                        let concrete =
                          shape_is_concrete class_shape
                          && shape_is_concrete node_sh
                        in
                        let mk =
                          if concrete then Diagnostic.error
                          else Diagnostic.warning
                        in
                        emit
                          (mk ~code:"EGRAPH006"
                             (Diagnostic.Eclass (Id.to_int id))
                             "shape analysis says %s but node %s has shape \
                              %s%s"
                             (Shape.to_string class_shape)
                             (Fmt.str "%a" Enode.pp node)
                             (Shape.to_string node_sh)
                             (if concrete then ""
                              else " (equality unprovable)")))
                (Egraph.nodes_of g id))
        class_ids;
      (* Union-time shape conflicts: [Egraph.union] keeps the winner's
         shape when both classes carry one, but records the dropped
         disagreement. Severity mirrors EGRAPH006: an error only when
         both shapes are concrete (a provable contradiction in the
         equality being asserted); a warning when symbolic dimensions
         make the disagreement unprovable. *)
      List.iter
        (fun (id, kept, dropped) ->
          let concrete = shape_is_concrete kept && shape_is_concrete dropped in
          let mk = if concrete then Diagnostic.error else Diagnostic.warning in
          emit
            (mk ~code:"EGRAPH007"
               (Diagnostic.Eclass (Id.to_int (Egraph.find g id)))
               "union merged classes with disagreeing shapes: kept %s, \
                dropped %s%s"
               (Shape.to_string kept) (Shape.to_string dropped)
               (if concrete then "" else " (equality unprovable)")))
        (Egraph.Debug.shape_conflicts g);
      (* Cached node counter vs. ground truth. *)
      let recomputed = Egraph.Debug.recompute_num_nodes g in
      if Egraph.num_nodes g <> recomputed then
        emit
          (Diagnostic.error ~code:"EGRAPH008" Diagnostic.Egraph
             "cached num_nodes = %d but recounting the class node lists \
              gives %d"
             (Egraph.num_nodes g) recomputed);
      (* Operator-family index: complete (every class listed under every
         family it contains) and sound after compaction (no family
         claims a class with no node of that family). Raw entries may
         hold stale non-canonical ids from absorbed classes — those are
         compacted lazily on query, so completeness is checked through
         the querying API and soundness only over live canonical ids. *)
      let class_families id =
        List.fold_left
          (fun acc node ->
            match Enode.sym node with
            | Enode.Op op ->
                let f = Op.name op in
                if List.mem f acc then acc else f :: acc
            | Enode.Leaf _ -> acc)
          [] (Egraph.nodes_of g id)
      in
      List.iter
        (fun id ->
          List.iter
            (fun f ->
              if not (List.exists (Id.equal id) (Egraph.classes_with_family g f))
              then
                emit
                  (Diagnostic.error ~code:"EGRAPH009"
                     (Diagnostic.Eclass (Id.to_int id))
                     "family index is missing class %d under family %S"
                     (Id.to_int id) f))
            (class_families id))
        class_ids;
      List.iter
        (fun (f, ids) ->
          List.iter
            (fun id ->
              if Id.equal (Egraph.find g id) id && not (List.mem f (class_families id))
              then
                emit
                  (Diagnostic.error ~code:"EGRAPH009"
                     (Diagnostic.Eclass (Id.to_int id))
                     "family index lists class %d under family %S but the \
                      class has no such node"
                     (Id.to_int id) f))
            ids)
        (Egraph.Debug.family_entries g);
      (* Arity census: exact in both directions. Every node's (family,
         arity) must be recorded, and every recorded arity must be held
         by some node of the family. *)
      let held = Hashtbl.create 64 in
      Egraph.iter_nodes g (fun _ node ->
          match Enode.sym node with
          | Enode.Op op ->
              Hashtbl.replace held
                (Op.name op, List.length (Enode.children node))
                ()
          | Enode.Leaf _ -> ());
      Hashtbl.iter
        (fun (f, n) () ->
          if not (Egraph.has_arity g f n) then
            emit
              (Diagnostic.error ~code:"EGRAPH010" Diagnostic.Egraph
                 "arity census of family %S lacks arity %d, which a node \
                  has"
                 f n))
        held;
      List.iter
        (fun (f, arities) ->
          List.iter
            (fun n ->
              if not (Hashtbl.mem held (f, n)) then
                emit
                  (Diagnostic.error ~code:"EGRAPH010" Diagnostic.Egraph
                     "arity census of family %S records arity %d, which no \
                      node has"
                     f n))
            arities)
        (Egraph.Debug.arity_census g);
      Diagnostic.sort (List.rev !diags)

exception Violation of Diagnostic.t list

let runner_hook g =
  let ds = check g in
  if Diagnostic.count_errors ds > 0 then raise (Violation ds)
