open Entangle_symbolic
open Entangle_ir

type t = string

let equal = String.equal
let compare = String.compare
let to_hex fp = fp
let pp = Fmt.string

(* Length-prefixed framing so ["ab";"c"] and ["a";"bc"] cannot
   collide, then one SHA-256 over the frame. Fingerprints are the
   content-addressing scheme of exported certificate bundles — ids
   that cross a trust boundary — so the digest must be
   collision-resistant, not merely a checksum (MD5 would let two
   crafted statements share a fingerprint and a bundle id). *)
let digest tag parts =
  let b = Buffer.create 64 in
  Buffer.add_string b tag;
  List.iter
    (fun p ->
      Buffer.add_char b '/';
      Buffer.add_string b (string_of_int (String.length p));
      Buffer.add_char b ':';
      Buffer.add_string b p)
    parts;
  Sha256.hex (Buffer.contents b)

let strings parts = digest "s" parts

(* A graph and the fingerprint of each of its tensors, by tensor id. *)
type env = { g : Graph.t; fps : (int, string) Hashtbl.t }

let leaf_fp t =
  digest "t"
    [
      Tensor.name t;
      Shape.to_string (Tensor.shape t);
      Dtype.to_string (Tensor.dtype t);
    ]

let tensor env t =
  match Hashtbl.find_opt env.fps (Tensor.id t :> int) with
  | Some fp -> fp
  | None -> leaf_fp t

let node env n =
  let out = Node.output n in
  digest "n"
    (Op.key (Node.op n)
    :: (List.map (tensor env) (Node.inputs n)
       @ [
           Tensor.name out;
           Shape.to_string (Tensor.shape out);
           Dtype.to_string (Tensor.dtype out);
         ]))

let graph_env g =
  let env = { g; fps = Hashtbl.create 64 } in
  List.iter
    (fun t -> Hashtbl.replace env.fps (Tensor.id t :> int) (leaf_fp t))
    (Graph.inputs g);
  List.iter
    (fun n ->
      Hashtbl.replace env.fps (Tensor.id (Node.output n) :> int) (node env n))
    (Graph.nodes g);
  env

let rec expr env = function
  | Expr.Leaf t -> tensor env t
  | Expr.App (op, args) -> digest "e" (Op.key op :: List.map (expr env) args)

let exprs env es = digest "es" (List.sort String.compare (List.map (expr env) es))

let constraints store =
  let render = function
    | Constraint_store.Ge d -> "ge " ^ Symdim.to_string d
    | Constraint_store.Eq d -> "eq " ^ Symdim.to_string d
  in
  digest "c"
    (List.sort String.compare
       (List.map render (Constraint_store.constraints store)))

(* A node's fingerprint is its output's entry in [env]: on a graph that
   passes GRAPH001 and GRAPH002, [graph_env] computed it from the final
   fingerprints of the node's inputs, so [node env n] would only hash
   the same bytes again. *)
let graph env =
  let g = env.g in
  let sorted ts = List.sort String.compare (List.map (tensor env) ts) in
  digest "g"
    (constraints (Graph.constraints g)
    :: (sorted (Graph.inputs g)
       @ ("|" :: sorted (Graph.outputs g))
       @ ("|" :: sorted (List.map Node.output (Graph.nodes g)))))
