open Entangle_ir
module B = Graph.Builder

type t = {
  b : B.t;
  degree : int;
  mutable rel : (Tensor.t * Expr.t) list;
  mutable collective_count : int;
}

let create ?constraints ~name ~degree () =
  if degree < 1 then invalid_arg "Lower.create: degree must be >= 1";
  { b = B.create ?constraints name; degree; rel = []; collective_count = 0 }

let degree t = t.degree
let builder t = t.b
let map_ranks t f = List.init t.degree f
let relate t tensor expr = t.rel <- t.rel @ [ (tensor, expr) ]

let shard_input t tensor ~dim =
  let shapes =
    match Partition.split_dim (Tensor.shape tensor) ~dim ~parts:t.degree with
    | Ok s -> s
    | Error e -> invalid_arg (Fmt.str "Lower.shard_input(%a): %s" Tensor.pp_name tensor e)
  in
  let shards =
    List.mapi
      (fun r shape ->
        B.input t.b ~dtype:(Tensor.dtype tensor)
          (Fmt.str "%s_%d" (Tensor.name tensor) r)
          shape)
      shapes
  in
  relate t tensor (Expr.app (Op.Concat { dim }) (List.map Expr.leaf shards));
  shards

let replicate_input t tensor =
  map_ranks t (fun r ->
      let replica =
        B.input t.b ~dtype:(Tensor.dtype tensor)
          (Fmt.str "%s_%d" (Tensor.name tensor) r)
          (Tensor.shape tensor)
      in
      relate t tensor (Expr.leaf replica);
      replica)

let whole_input t tensor =
  let copy =
    B.input t.b ~dtype:(Tensor.dtype tensor)
      (Fmt.str "%s_d" (Tensor.name tensor))
      (Tensor.shape tensor)
  in
  relate t tensor (Expr.leaf copy);
  copy

let add t ?name op inputs = B.add t.b ?name op inputs

let collective_name t kind r =
  Fmt.str "%%%s%d_r%d" kind t.collective_count r

let all_reduce t contributions =
  t.collective_count <- t.collective_count + 1;
  map_ranks t (fun r ->
      B.add t.b ~name:(collective_name t "all_reduce" r) Op.All_reduce
        contributions)

let reduce_scatter t ~dim contributions =
  t.collective_count <- t.collective_count + 1;
  map_ranks t (fun r ->
      B.add t.b
        ~name:(collective_name t "reduce_scatter" r)
        (Op.Reduce_scatter { dim; index = r; count = t.degree })
        contributions)

let all_gather t ~dim pieces =
  t.collective_count <- t.collective_count + 1;
  map_ranks t (fun r ->
      B.add t.b ~name:(collective_name t "all_gather" r) (Op.All_gather { dim })
        pieces)

let output t tensor = B.output t.b tensor
let outputs t tensors = List.iter (output t) tensors

let finish t =
  let graph = B.finish t.b in
  (graph, Entangle.Relation.of_list t.rel)
