open Entangle_ir

type mode = Insert | Check_only

(* Hard bound on the substitutions produced while matching one pattern
   against one class. Classes that accumulate many equivalent variadic
   nodes (nested sums, regrouped concats) otherwise yield quadratically
   many matches; truncation loses completeness of a single iteration
   only — later iterations rediscover anything still missing. *)
let per_class_budget = 2048

(* Single tail-recursive pass: counts and copies at once, and returns
   the input list physically unchanged when it fits the budget. *)
let truncate l =
  let rec go acc n = function
    | [] -> l
    | x :: rest -> if n = 0 then List.rev acc else go (x :: acc) (n - 1) rest
  in
  go [] per_class_budget l

let sel_matches sel (op : Op.t) subst =
  match sel with
  | Pattern.Fixed o -> if Op.equal o op then Some subst else None
  | Pattern.Family { family; bind } ->
      if String.equal (Op.name op) family then Subst.bind_op subst bind op
      else None
  | Pattern.Bound name -> (
      match Subst.op_opt subst name with
      | Some o when Op.equal o op -> Some subst
      | _ -> None)

let rec match_pat g pat cls subst =
  let cls = Egraph.find g cls in
  match pat with
  | Pattern.V x -> (
      match Subst.bind_var subst x cls with
      | Some s -> [ s ]
      | None -> [])
  | Pattern.C id -> if Id.equal (Egraph.find g id) cls then [ subst ] else []
  | Pattern.P (sel, args) ->
      let n_args = List.length args in
      (* Stored nodes, not canonical copies: every child is [find]-ed
         on entry above. *)
      List.concat_map
        (fun (enode, _) ->
          match Enode.sym enode with
          | Enode.Leaf _ -> []
          | Enode.Op op ->
              if List.length (Enode.children enode) <> n_args then []
              else begin
                match sel_matches sel op subst with
                | None -> []
                | Some subst ->
                    List.fold_left2
                      (fun substs arg child ->
                        truncate
                          (List.concat_map
                             (fun s -> match_pat g arg child s)
                             substs))
                      [ subst ] args (Enode.children enode)
              end)
        (Egraph.nodes_with_stamps g cls)
      |> truncate

let fp_match =
  Entangle_failpoint.Failpoint.declare "egraph.ematch"
    ~doc:"per-class entry of the e-matcher (full and delta searches)"

let match_class g pat cls =
  Entangle_failpoint.Failpoint.hit fp_match;
  match_pat g pat cls Subst.empty

(* Delta (semi-naive) matching: collect only substitutions whose
   application could do something a search taken at generation [since]
   did not already do. A substitution is kept when

   - its root node was created after [since]
     ({!Egraph.nodes_with_stamps}; nodes absorbed by a merge keep their
     stamp — those substitutions were collected at the losing class and
     their application outcome is unchanged by the merge);
   - or a class entered through an operator sub-pattern changed
     structurally after [since] ({!Egraph.structural_at}) — a merge or
     addition there exposes new sub-derivations to every old root node
     above it;
   - or a bare-variable root's class changed structurally (it was
     created, or a union merged nodes into it): its one substitution
     has no root node to carry a stamp;
   - or, when [conditional], any visited class — including classes
     merely bound by a variable, and the root — changed structurally
     (which subsumes shape changes: [shape_at <= structural_at]).

   The [conditional] flag exists because a variable binding [x := c]
   yields the same substitution whatever happens inside [c]: for a
   syntactic right-hand side (or a rule whose previously collected
   substitutions are re-applied from a cache), re-admitting it is pure
   waste. A conditional applier, however, may inspect the structure,
   shape, or union-find identity of every match-reachable class, so any
   structural change to a bound class can flip its outcome and the
   substitution must be re-admitted.

   Everything else was derivable with an identical application outcome,
   and therefore collected and applied, last time. Sub-pattern
   freshness is per-class rather than per-node (a mid-path merge
   re-admits every substitution crossing the merged class, not only
   those through the absorbed nodes): an over-approximation that costs
   duplicates but never misses a new match. *)
let match_class_delta g ~since ~conditional pat cls0 =
  Entangle_failpoint.Failpoint.hit fp_match;
  let fresh cls = Egraph.structural_at g cls > since in
  let rec go pat cls subst f =
    let cls = Egraph.find g cls in
    let f =
      (* [C] is checked unconditionally: a merge can make the class
         test newly succeed, and the merge bumps the winner's
         structural stamp. [V] bindings only matter to a conditional
         applier (the caller accounts for non-linear patterns, where a
         merge can newly satisfy a repeated-variable constraint, by
         passing [conditional:true]). *)
      f
      || ((match pat with
          | Pattern.P _ | Pattern.C _ -> true
          | Pattern.V _ -> conditional)
         && fresh cls)
    in
    match pat with
    | Pattern.V x -> (
        match Subst.bind_var subst x cls with
        | Some s -> [ (s, f) ]
        | None -> [])
    | Pattern.C id ->
        if Id.equal (Egraph.find g id) cls then [ (subst, f) ] else []
    | Pattern.P (sel, args) ->
        let n_args = List.length args in
        List.concat_map
          (fun (enode, _) ->
            match Enode.sym enode with
            | Enode.Leaf _ -> []
            | Enode.Op op ->
                if List.length (Enode.children enode) <> n_args then []
                else begin
                  match sel_matches sel op subst with
                  | None -> []
                  | Some subst ->
                      List.fold_left2
                        (fun substs arg child ->
                          truncate
                            (List.concat_map
                               (fun (s, f) -> go arg child s f)
                               substs))
                        [ (subst, f) ] args (Enode.children enode)
                end)
          (Egraph.nodes_with_stamps g cls)
        |> truncate
  in
  let pairs =
    match pat with
    | Pattern.V _ | Pattern.C _ ->
        go pat cls0 Subst.empty (fresh (Egraph.find g cls0))
    | Pattern.P (sel, args) ->
        let root = Egraph.find g cls0 in
        (* A conditional applier may read the root class's shape, so a
           shape adoption re-admits its substitutions. Root structure
           beyond the matched node itself is not re-checked: appliers
           receive the root as an opaque id ([Pattern.c root]), and
           node-set changes to the root class are covered by the
           per-node stamps. *)
        let root_fresh = conditional && Egraph.shape_at g root > since in
        let n_args = List.length args in
        List.concat_map
          (fun (enode, stamp) ->
            match Enode.sym enode with
            | Enode.Leaf _ -> []
            | Enode.Op op ->
                if List.length (Enode.children enode) <> n_args then []
                else begin
                  match sel_matches sel op Subst.empty with
                  | None -> []
                  | Some subst ->
                      List.fold_left2
                        (fun substs arg child ->
                          truncate
                            (List.concat_map
                               (fun (s, f) -> go arg child s f)
                               substs))
                        [ (subst, root_fresh || stamp > since) ]
                        args (Enode.children enode)
                end)
          (Egraph.nodes_with_stamps g root)
        |> truncate
  in
  List.filter_map (fun (s, f) -> if f then Some s else None) pairs

let match_all g pat =
  List.concat_map
    (fun cls ->
      List.map (fun s -> (cls, s)) (match_class g pat cls))
    (Egraph.class_ids g)

let rec instantiate ~mode g subst = function
  | Pattern.V x -> Subst.var_opt subst x
  | Pattern.C id -> Some (Egraph.find g id)
  | Pattern.P (sel, args) -> (
      let op =
        match sel with
        | Pattern.Fixed o -> Some o
        | Pattern.Bound name -> Subst.op_opt subst name
        | Pattern.Family _ -> None
      in
      match op with
      | None -> None
      | Some op ->
          let rec build acc = function
            | [] -> Some (List.rev acc)
            | a :: rest -> (
                match instantiate ~mode g subst a with
                | Some id -> build (id :: acc) rest
                | None -> None)
          in
          (match build [] args with
          | None -> None
          | Some children -> (
              let node = Enode.op op children in
              match mode with
              | Insert -> Some (Egraph.add g node)
              | Check_only -> Egraph.lookup g node)))
