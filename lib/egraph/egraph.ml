open Entangle_symbolic
open Entangle_ir

type eclass = {
  (* Each node is paired with the generation at which it joined this
     class: its creation for original members, the merge generation for
     nodes absorbed from a losing class. Delta e-matching uses the
     stamp to skip root nodes whose substitutions were all collected at
     a previous search. *)
  mutable nodes : (Enode.t * int) list;
  mutable parents : (Enode.t * Id.t) list;
  mutable shape : Shape.t option;
  mutable modified_at : int;
  (* Generation of the last change to the class's own node set (class
     creation or a union merging another class's nodes in), as opposed
     to [modified_at] which is also bumped by dirtiness propagated up
     from descendants. Delta e-matching keys on this stamp: a
     substitution is new only if its derivation crosses a class whose
     node set changed. *)
  mutable structural_at : int;
  (* Generation of the last change to [shape]. Only merges (and class
     creation) can change a shape, so [shape_at <= structural_at]. *)
  mutable shape_at : int;
}

(* The classes holding a node of one operator family, and the arity
   census: bit [n] is set once a node of the family with [n] children
   has been hash-consed. A hash-consed node never loses its operator or
   arity ([rebuild] re-keys it over canonical children and dedups it
   only against an equal node), so the census is exact: a clear bit
   means [lookup] finds no such node. *)
type family = { members : unit Id.Tbl.t; mutable arities : int }

type t = {
  uf : Union_find.t;
  memo : Id.t Enode.Tbl.t;
  classes : eclass Id.Tbl.t;
  leaves : (int, Id.t) Hashtbl.t;  (* Tensor.id -> class *)
  mutable pending : Id.t list;
  constrs : Constraint_store.t;
  (* Incremental-matching support: a monotonically increasing
     modification counter; every structural change stamps the touched
     class with a fresh value, so the runner can re-match only classes
     dirtied since a rule's last search. *)
  mutable generation : int;
  (* Cached node count, mirroring [fold List.length classes] exactly
     (duplicates introduced by unions are counted until [rebuild]
     deduplicates them). *)
  mutable n_nodes : int;
  (* Operator family -> classes containing a node of that family, and
     the family's arity census, maintained incrementally on add/union.
     Entries may go stale when a class is absorbed by a union; queries
     canonicalize lazily and compact the set. A class never *loses* a
     family, so entries are never false after canonicalization. *)
  families : (string, family) Hashtbl.t;
  (* Unions that merged two classes whose shape analyses disagree; kept
     for the invariant checker (EGRAPH007) instead of silently dropping
     the loser's shape. *)
  mutable shape_conflicts : (Id.t * Shape.t * Shape.t) list;
}

let create ?(constraints = Constraint_store.empty) () =
  {
    uf = Union_find.create ();
    memo = Enode.Tbl.create 256;
    classes = Id.Tbl.create 256;
    leaves = Hashtbl.create 64;
    pending = [];
    constrs = constraints;
    generation = 0;
    n_nodes = 0;
    families = Hashtbl.create 64;
    shape_conflicts = [];
  }

let constraints t = t.constrs
let find t id = Union_find.find t.uf id

let canonicalize t n = Enode.map_children (find t) n

let eclass_of t id =
  match Id.Tbl.find_opt t.classes (find t id) with
  | Some c -> c
  | None -> invalid_arg "Egraph: unknown class id"

let touch t cls =
  t.generation <- t.generation + 1;
  cls.modified_at <- t.generation

(* For changes to the class's own node set; implies [touch]. *)
let touch_structural t cls =
  touch t cls;
  cls.structural_at <- cls.modified_at

let generation t = t.generation
let modified_at t id = (eclass_of t id).modified_at
let structural_at t id = (eclass_of t id).structural_at
let shape_at t id = (eclass_of t id).shape_at

let classes_modified_since t gen =
  Id.Tbl.fold
    (fun id c acc -> if c.modified_at > gen then id :: acc else acc)
    t.classes []

(* Arities past the census's bits are never recorded; [has_arity]
   answers yes for them. *)
let census_width = Sys.int_size - 1

(* Class [id] holds the operator node [n] of operator [op]. *)
let family_add t op n id =
  let f =
    match Hashtbl.find_opt t.families (Op.name op) with
    | Some f -> f
    | None ->
        let f = { members = Id.Tbl.create 8; arities = 0 } in
        Hashtbl.replace t.families (Op.name op) f;
        f
  in
  Id.Tbl.replace f.members id ();
  let arity = List.length (Enode.children n) in
  if arity < census_width then f.arities <- f.arities lor (1 lsl arity)

let has_arity t fam n =
  match Hashtbl.find_opt t.families fam with
  | None -> false
  | Some f -> n >= census_width || f.arities land (1 lsl n) <> 0

let classes_with_family t fam =
  match Hashtbl.find_opt t.families fam with
  | None -> []
  | Some { members = set; _ } ->
      let canon = Id.Tbl.create (Id.Tbl.length set) in
      Id.Tbl.iter
        (fun id () ->
          let root = find t id in
          if Id.Tbl.mem t.classes root then Id.Tbl.replace canon root ())
        set;
      (* Compact away absorbed ids so stale entries are paid for once. *)
      if Id.Tbl.length canon <> Id.Tbl.length set then begin
        Id.Tbl.reset set;
        Id.Tbl.iter (fun id () -> Id.Tbl.replace set id ()) canon
      end;
      Id.Tbl.fold (fun id () acc -> id :: acc) canon []

let infer_shape t (n : Enode.t) =
  match Enode.sym n with
  | Enode.Leaf tensor -> Some (Tensor.shape tensor)
  | Enode.Op op -> (
      let child_shapes =
        List.map (fun c -> (eclass_of t c).shape) (Enode.children n)
      in
      if List.exists Option.is_none child_shapes then None
      else
        let shapes = List.map Option.get child_shapes in
        match Op.infer_shape t.constrs op shapes with
        | Ok s -> Some s
        | Error _ -> None)

let lookup t n =
  let n = canonicalize t n in
  Option.map (find t) (Enode.Tbl.find_opt t.memo n)

let add t n =
  let n = canonicalize t n in
  match Enode.Tbl.find_opt t.memo n with
  | Some id -> find t id
  | None ->
      let id = Union_find.fresh t.uf in
      let cls =
        {
          nodes = [];
          parents = [];
          shape = None;
          modified_at = 0;
          structural_at = 0;
          shape_at = 0;
        }
      in
      Id.Tbl.replace t.classes id cls;
      touch_structural t cls;
      cls.nodes <- [ (n, t.generation) ];
      cls.shape_at <- t.generation;
      t.n_nodes <- t.n_nodes + 1;
      List.iter
        (fun child ->
          let c = eclass_of t child in
          c.parents <- (n, id) :: c.parents)
        (Enode.children n);
      Enode.Tbl.replace t.memo n id;
      cls.shape <- infer_shape t n;
      (match Enode.sym n with
      | Enode.Leaf tensor -> Hashtbl.replace t.leaves (Tensor.id tensor :> int) id
      | Enode.Op op -> family_add t op n id);
      id

let add_leaf t tensor = add t (Enode.leaf tensor)
let add_op t op children = add t (Enode.op op children)

let rec add_expr t = function
  | Expr.Leaf tensor -> add_leaf t tensor
  | Expr.App (op, args) -> add_op t op (List.map (add_expr t) args)

let leaf_id t tensor =
  Option.map (find t) (Hashtbl.find_opt t.leaves (Tensor.id tensor :> int))

let equiv t a b = Id.equal (find t a) (find t b)

let union t a b =
  let fa = find t a and fb = find t b in
  if Id.equal fa fb then false
  else begin
    let ca = eclass_of t fa and cb = eclass_of t fb in
    let root = Union_find.union t.uf fa fb in
    let winner, loser_id, loser =
      if Id.equal root fa then (ca, fb, cb) else (cb, fa, ca)
    in
    touch_structural t winner;
    (* The loser's op families now belong to the merged class. Its
       nodes keep their join stamps: a substitution rooted at the
       merged class through an absorbed node was already collected when
       the rule searched the losing class (and its application outcome
       is unchanged — the two roots are now equal), while substitutions
       that reach the absorbed nodes from an ancestor descend through
       this class and see its fresh [structural_at]. *)
    List.iter
      (fun (n, _) ->
        match Enode.sym n with
        | Enode.Op op -> family_add t op n root
        | Enode.Leaf _ -> ())
      loser.nodes;
    winner.nodes <- List.rev_append loser.nodes winner.nodes;
    winner.parents <- List.rev_append loser.parents winner.parents;
    (match (winner.shape, loser.shape) with
    | None, Some s ->
        winner.shape <- Some s;
        winner.shape_at <- t.generation
    | Some a, Some b when not (Shape.equal t.constrs a b) ->
        (* Both sides carry a shape and they disagree: keep the winner's
           (historical behavior) but record the conflict so the
           invariant checker can surface it (EGRAPH007). *)
        t.shape_conflicts <- (root, a, b) :: t.shape_conflicts
    | _ -> ());
    Id.Tbl.remove t.classes loser_id;
    t.pending <- root :: t.pending;
    true
  end

(* Mark every class transitively reachable from [roots] through parent
   edges as modified: a union deep inside a term can create new matches
   for patterns rooted at any ancestor class, so the dirty set the
   incremental runner consumes must include them. *)
let propagate_dirty t roots =
  let visited = ref Id.Set.empty in
  let stack = ref (Id.Set.elements roots) in
  let push id = stack := id :: !stack in
  let rec drain () =
    match !stack with
    | [] -> ()
    | id :: rest ->
        stack := rest;
        let id = find t id in
        if not (Id.Set.mem id !visited) then begin
          visited := Id.Set.add id !visited;
          match Id.Tbl.find_opt t.classes id with
          | None -> ()
          | Some cls ->
              touch t cls;
              List.iter (fun (_, pid) -> push pid) cls.parents
        end;
        drain ()
  in
  drain ()

(* Fault-injection site for the resilience tests: armed via
   ENTANGLE_FAILPOINTS / --failpoints, a no-op branch otherwise. *)
let fp_rebuild =
  Entangle_failpoint.Failpoint.declare "egraph.rebuild"
    ~doc:"start of Egraph.rebuild (congruence restoration)"

let rebuild t =
  Entangle_failpoint.Failpoint.hit fp_rebuild;
  let dirty_roots = ref Id.Set.empty in
  let rec go () =
    match t.pending with
    | [] -> ()
    | pending ->
        t.pending <- [];
        let seen = ref Id.Set.empty in
        List.iter
          (fun id ->
            let root = find t id in
            dirty_roots := Id.Set.add root !dirty_roots;
            if not (Id.Set.mem root !seen) then begin
              seen := Id.Set.add root !seen;
              let cls = eclass_of t root in
              (* Re-canonicalize parents, merging congruent ones. *)
              let parents = cls.parents in
              cls.parents <- [];
              let fresh = Hashtbl.create (List.length parents) in
              List.iter
                (fun (pnode, pid) ->
                  Enode.Tbl.remove t.memo pnode;
                  let pnode = canonicalize t pnode in
                  let pid = find t pid in
                  (match Enode.Tbl.find_opt t.memo pnode with
                  | Some other -> ignore (union t pid other)
                  | None -> Enode.Tbl.replace t.memo pnode pid);
                  let key = Enode.hash pnode in
                  if not (Hashtbl.mem fresh (key, pnode)) then begin
                    Hashtbl.replace fresh (key, pnode) ();
                    let cls = eclass_of t root in
                    cls.parents <- (pnode, find t pid) :: cls.parents
                  end)
                parents;
              (* Deduplicate and re-canonicalize the class's own nodes.
                 Duplicates keep the oldest stamp: if any copy predates a
                 rule's last search, its substitutions were already
                 collected then. *)
              let cls = eclass_of t root in
              let before = List.length cls.nodes in
              let tbl = Enode.Tbl.create before in
              List.iter
                (fun (n, stamp) ->
                  let n = canonicalize t n in
                  match Enode.Tbl.find_opt tbl n with
                  | Some stamp' when stamp' <= stamp -> ()
                  | _ -> Enode.Tbl.replace tbl n stamp)
                cls.nodes;
              cls.nodes <-
                Enode.Tbl.fold (fun n stamp acc -> (n, stamp) :: acc) tbl [];
              t.n_nodes <- t.n_nodes + Enode.Tbl.length tbl - before
            end)
          pending;
        go ()
  in
  go ();
  if not (Id.Set.is_empty !dirty_roots) then propagate_dirty t !dirty_roots

let nodes_of t id =
  List.map (fun (n, _) -> canonicalize t n) (eclass_of t id).nodes

let nodes_with_stamps t id = (eclass_of t id).nodes
let shape_of t id = (eclass_of t id).shape
let class_ids t = Id.Tbl.fold (fun id _ acc -> id :: acc) t.classes []
let num_classes t = Id.Tbl.length t.classes
let num_nodes t = t.n_nodes

let reachable t roots =
  let visited = ref Id.Set.empty in
  let rec visit id =
    let id = find t id in
    if not (Id.Set.mem id !visited) then begin
      visited := Id.Set.add id !visited;
      List.iter
        (fun n -> List.iter visit (Enode.children n))
        (nodes_of t id)
    end
  in
  List.iter visit roots;
  !visited

let contains_leaf t id pred =
  List.exists
    (fun n ->
      match Enode.sym n with
      | Enode.Leaf tensor -> pred tensor
      | Enode.Op _ -> false)
    (nodes_of t id)

let iter_nodes t f =
  Id.Tbl.iter
    (fun id cls ->
      List.iter (fun (n, _) -> f id (canonicalize t n)) cls.nodes)
    t.classes

module Debug = struct
  let memo_entries t = Enode.Tbl.fold (fun n id acc -> (n, id) :: acc) t.memo []
  let pending_count t = List.length t.pending
  let uf_size t = Union_find.size t.uf
  let uf_check_acyclic t = Union_find.check_acyclic t.uf

  let recompute_num_nodes t =
    Id.Tbl.fold (fun _ c acc -> acc + List.length c.nodes) t.classes 0

  let family_entries t =
    Hashtbl.fold
      (fun fam f acc ->
        (fam, Id.Tbl.fold (fun id () ids -> id :: ids) f.members []) :: acc)
      t.families []

  let arity_census t =
    let arities f =
      List.filter
        (fun n -> f.arities land (1 lsl n) <> 0)
        (List.init census_width Fun.id)
    in
    Hashtbl.fold (fun fam f acc -> (fam, arities f) :: acc) t.families []

  let shape_conflicts t = t.shape_conflicts
end

let pp ppf t =
  Id.Tbl.iter
    (fun id cls ->
      Fmt.pf ppf "@[<h>class %a:%a %a@]@."
        Id.pp id
        Fmt.(option (any ":" ++ Shape.pp))
        cls.shape
        (Fmt.list ~sep:(Fmt.any " | ") Enode.pp)
        (List.map fst cls.nodes))
    t.classes
