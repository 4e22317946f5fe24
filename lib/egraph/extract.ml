open Entangle_ir

let infinity_cost = max_int / 4

let fp_extract =
  Entangle_failpoint.Failpoint.declare "egraph.extract"
    ~doc:"entry of the cost-relaxation pass behind every extraction"

(* Fixpoint cost relaxation over the (possibly cyclic) e-graph. The cost
   of a node is 1 + sum of its children's class costs; a class costs the
   minimum over its admissible nodes. Only the classes [root] reaches
   through children are relaxed: that set is closed under children, so
   the least fixpoint on it equals the whole-graph one, and
   [reconstruct] never leaves it. Ascending ids visit children before
   parents, except where a merge reordered them; the order only changes
   the number of passes. *)
let compute_costs g ~node_ok ~leaf_ok root =
  Entangle_failpoint.Failpoint.hit fp_extract;
  let classes = Id.Set.elements (Egraph.reachable g [ root ]) in
  let cost : int Id.Tbl.t = Id.Tbl.create 64 in
  let get id =
    Option.value (Id.Tbl.find_opt cost (Egraph.find g id)) ~default:infinity_cost
  in
  let node_cost n =
    match Enode.sym n with
    | Enode.Leaf t -> if leaf_ok t then 0 else infinity_cost
    | Enode.Op op ->
        if not (node_ok op) then infinity_cost
        else
          let c =
            List.fold_left
              (fun acc child ->
                let k = get child in
                if acc >= infinity_cost || k >= infinity_cost then infinity_cost
                else acc + k)
              1 (Enode.children n)
          in
          c
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun cls ->
        let best =
          List.fold_left
            (fun acc n -> min acc (node_cost n))
            infinity_cost (Egraph.nodes_of g cls)
        in
        if best < get cls then begin
          Id.Tbl.replace cost cls best;
          changed := true
        end)
      classes
  done;
  (cost, node_cost)

let reconstruct g (cost, node_cost) id =
  let get id =
    Option.value
      (Id.Tbl.find_opt cost (Egraph.find g id))
      ~default:infinity_cost
  in
  let rec build id =
    let cls = Egraph.find g id in
    let candidates =
      List.filter_map
        (fun n ->
          let c = node_cost n in
          if c >= infinity_cost then None else Some (c, n))
        (Egraph.nodes_of g cls)
    in
    let best =
      List.sort
        (fun (ca, na) (cb, nb) ->
          match Int.compare ca cb with 0 -> Enode.compare na nb | c -> c)
        candidates
    in
    match best with
    | [] -> None
    | (_, n) :: _ -> (
        match Enode.sym n with
        | Enode.Leaf t -> Some (Expr.leaf t)
        | Enode.Op op ->
            let rec args acc = function
              | [] -> Some (List.rev acc)
              | child :: rest -> (
                  match build child with
                  | Some e -> args (e :: acc) rest
                  | None -> None)
            in
            Option.map (fun a -> Expr.app op a) (args [] (Enode.children n)))
  in
  if get id >= infinity_cost then None else build id

let best g id =
  let node_ok _ = true and leaf_ok _ = true in
  let tables = compute_costs g ~node_ok ~leaf_ok id in
  reconstruct g tables id

let best_clean g ~leaf_ok id =
  let node_ok = Op.is_clean in
  let tables = compute_costs g ~node_ok ~leaf_ok id in
  reconstruct g tables id

let best_filtered g ~node_ok ~leaf_ok id =
  let tables = compute_costs g ~node_ok ~leaf_ok id in
  reconstruct g tables id
