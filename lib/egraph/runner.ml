type budget = Iterations | Nodes | Classes | Deadline

let budget_name = function
  | Iterations -> "iterations"
  | Nodes -> "nodes"
  | Classes -> "classes"
  | Deadline -> "deadline"

type limits = { max_iterations : int; max_nodes : int; max_classes : int }

let default_limits =
  { max_iterations = 30; max_nodes = 20_000; max_classes = 10_000 }

let scale_limits k l =
  {
    max_iterations = l.max_iterations * k;
    max_nodes = l.max_nodes * k;
    max_classes = l.max_classes * k;
  }

type report = {
  iterations : int;
  saturated : bool;
  nodes : int;
  classes : int;
  matches : int;
  unions : int;
  tripped : budget option;
}

type outcome = Merged | Saturated | Unconfirmed | Tripped of budget
type iteration = { outcome : outcome; matches : int; unions : int }

(* Root operator family of a rule's left-hand side, used to index rules
   so matching skips classes that contain no node of that family. *)
let root_family (rule : Rule.t) =
  match rule.lhs with
  | Pattern.P (Pattern.Fixed op, _) -> Some (Entangle_ir.Op.name op)
  | Pattern.P (Pattern.Family { family; _ }, _) -> Some family
  | Pattern.P (Pattern.Bound _, _) | Pattern.V _ | Pattern.C _ -> None

(* What the scheduler reads of one rule on every visit. None of it
   depends on the e-graph, so {!index} derives it once per rule list. *)
type entry = {
  rule : Rule.t;
  family : string option;  (** root family, see {!root_family} *)
  global : bool;
      (** the application outcome depends on global e-graph state:
          constrained rules ([Check_only] targets can materialize
          anywhere) and rules whose applier declares itself [nonlocal].
          Both re-apply their whole accumulated match cache whenever
          they run (see {!state}), so their global conditions are
          re-evaluated on old matches too. *)
  conditional : bool;
      (** delta matching needs class-level blanket re-admission (see
          {!Ematch.match_class_delta}): a conditional applier whose old
          outcomes are neither syntactically determined nor re-applied
          from the cache, and always a non-linear pattern, where a union
          of two bound classes creates genuinely new substitutions
          (never cached, touching no new node) out of the
          repeated-variable constraint. *)
}

type index = { rules : Rule.t list; entries : entry array }

let index rules =
  let entry (rule : Rule.t) =
    let global = rule.constrained || rule.nonlocal in
    let conditional =
      ((match rule.applier with
       | Rule.Conditional _ -> true
       | Rule.Syntactic _ -> false)
      && not global)
      || not (Pattern.linear rule.lhs)
    in
    { rule; family = root_family rule; global; conditional }
  in
  { rules; entries = Array.of_list (List.map entry rules) }

(* Per-rule scheduling state, persistent across [step] calls so a
   driver's later steps match incrementally. Each array holds one slot
   per rule, at the rule's position in the rule list, NOT keyed by its
   name: rule names are shared across a lemma's arity variants and
   directions, and aliasing their scheduling state would make every
   variant after the first see an empty dirty set on its (supposedly
   full) first search. *)
type state = {
  match_limit : int;
  ban_length : int;
  index : index;
  last_gen : int array;
      (** e-graph generation of the rule's last search; -1 = never
          searched *)
  times_banned : int array;
  banned_until : int array;  (** first iteration the rule may run again *)
  cached_matches : (Id.t * Subst.t) list array;
      (** Globally-dependent rules only: every substitution collected
          so far. Match sets are monotone (the e-graph only grows and
          merges, and bindings canonicalize through the union-find), so
          cache + fresh delta = the full current match set. Re-applying
          the cache makes an incremental search of such a rule
          equivalent to a full one: the application is what is global
          (a [Check_only] target may have materialized anywhere since),
          not the matching. *)
  mutable iteration : int;  (** passes run so far, across steps *)
}

let create_state ?(match_limit = 1000) ?(ban_length = 5) index =
  let n = Array.length index.entries in
  {
    match_limit;
    ban_length;
    index;
    last_gen = Array.make n (-1);
    times_banned = Array.make n 0;
    banned_until = Array.make n 0;
    cached_matches = Array.make n [];
    iteration = 0;
  }

module Sink = Entangle_trace.Sink
module Event = Entangle_trace.Event

let log_src = Logs.Src.create "entangle.runner" ~doc:"Equality saturation"

module Log = (val Logs.src_log log_src)

(* Applying one rule's pre-collected matches, stopping early if the
   e-graph outgrows the node budget mid-iteration. [Egraph.num_nodes]
   is a cached O(1) counter, so the per-match budget check is free. *)
let apply_bounded ~limits rule g matches =
  let mode =
    if rule.Rule.constrained then Ematch.Check_only else Ematch.Insert
  in
  let hits = ref 0 in
  (try
     List.iter
       (fun (cls, subst) ->
         if Egraph.num_nodes g > limits.max_nodes then raise Exit;
         let equations =
           match rule.Rule.applier with
           | Rule.Syntactic rhs -> [ (Pattern.c cls, rhs) ]
           | Rule.Conditional f -> f g cls subst
         in
         List.iter
           (fun (lhs, rhs) ->
             match
               ( Ematch.instantiate ~mode g subst lhs,
                 Ematch.instantiate ~mode g subst rhs )
             with
             | Some a, Some b -> if Egraph.union g a b then incr hits
             | _ -> ())
           equations)
       matches
   with Exit -> ());
  !hits

(* Candidate classes for one rule's search. A rule's first search
   consults the e-graph's incrementally maintained family index (or
   every class when the rule's root is not family-headed); every later
   search restricts to classes modified since the rule's last one. *)
let candidates g fam last_gen =
  if last_gen < 0 then
    match fam with
    | None -> Egraph.class_ids g
    | Some f -> Egraph.classes_with_family g f
  else
    match fam with
    | None -> Egraph.classes_modified_since g last_gen
    | Some f ->
        List.filter
          (fun cls -> Egraph.modified_at g cls > last_gen)
          (Egraph.classes_with_family g f)

(* Collect a rule's matches class by class, stopping once the cap is
   reached so pathological classes cannot materialize millions of
   substitutions. [since = Some gen] switches to delta matching: only
   substitutions whose derivation crosses a class structurally changed
   after [gen] are collected (the rest were applied at the rule's
   previous search). Also reports whether any class may have hit the
   per-class match budget — truncation drops substitutions silently, so
   the caller must not advance the rule's generation past them. *)
let collect rule classes ~cap ~since ~conditional g =
  let acc = ref [] and count = ref 0 and truncated = ref false in
  (try
     List.iter
       (fun cls ->
         if !count >= cap then raise Exit;
         let ms =
           match since with
           | None -> Ematch.match_class g rule.Rule.lhs cls
           | Some gen ->
               Ematch.match_class_delta g ~since:gen ~conditional
                 rule.Rule.lhs cls
         in
         let k = ref 0 in
         List.iter
           (fun s ->
             incr k;
             if !count < cap then begin
               acc := (cls, s) :: !acc;
               incr count
             end)
           ms;
         if !k >= Ematch.per_class_budget then truncated := true)
       classes
   with Exit -> ());
  (!acc, !truncated)

(* Rules are processed one at a time: matches for a rule are collected
   against the current e-graph and applied before the next rule is
   matched. Holding every rule's matches at once (as a literal reading
   of egg's iteration would) retains multiplicatively many
   substitutions on large classes. A per-rule cap bounds the
   pathological cases; the runner simply takes another iteration to
   finish the work. *)
let max_matches_per_rule = 20_000

(* Per-pass observability: what one trip over the rule list did. The
   totals feed the per-iteration trace span; [p_complete] is the
   fixpoint argument (see below). *)
type pass_info = {
  p_matches : int;
  p_hits : int;
  p_complete : bool;
  p_searched : int;  (** rules that actually ran a search *)
  p_full : int;  (** of those, full (non-delta) searches *)
  p_delta : int;  (** incremental (dirty-set) searches *)
  p_truncated : int;  (** collects that hit a cap or per-class budget *)
  p_banned : int;  (** rules skipped under an active ban *)
  p_deferred : int;  (** constrained rules deferred to cool-down *)
  p_new_bans : int;  (** bans issued during this pass *)
}

(* Where one iteration's time went, summed over its passes: the
   iteration span's [collect_s], [apply_s], [rebuild_s] and
   [minor_words]. The runner keeps one only when the sink is enabled,
   so a null sink reads no clock. *)
type split = {
  mutable collect_s : float;
  mutable apply_s : float;
  mutable rebuild_s : float;
  minor_words0 : float;  (** [Gc.minor_words] at the iteration's start *)
}

(* The clock is read only when the runner keeps a split and [work]
   says there is something to time: a read costs ~50 ns, and most rules
   have nothing to collect or apply in most passes. [lap] adds the
   seconds since [clock]'s reading to one field through [add]. *)
let clock split ~work =
  match split with Some _ when work -> Unix.gettimeofday () | _ -> 0.

let lap split ~work t0 add =
  match split with
  | Some sp when work -> add sp (Unix.gettimeofday () -. t0)
  | _ -> ()

let past_deadline = function
  | Some d -> Unix.gettimeofday () > d
  | None -> false

(* One pass over the rule list. With [full] bans are ignored (the
   caller lifts them first) and constrained rules are applied over
   their complete match set — the cool-down that makes the scheduler
   complete. Only constrained rules need it: their Check_only targets
   can come into existence anywhere in the e-graph without the matched
   class ever being dirtied. Unconstrained rules (syntactic or
   conditional) are match-local — their matches and conditions depend
   only on structure and shapes reachable from the matched class, all
   of which dirty the class through parent-edge propagation — so they
   keep searching incrementally even during cool-down. Constrained
   rules reach their complete match set cheaply too: matching is as
   local as anyone's, so the cool-down delta-collects fresh
   substitutions and re-applies the accumulated cache
   ([cached_matches]) instead of re-matching from scratch. *)
let pass ~limits ~deadline ~sink ~split st g ~full =
  let total_matches = ref 0 and total_hits = ref 0 in
  (* [complete]: this pass left no candidate unexamined that could
     reveal new work — a zero-hit complete pass is a genuine fixpoint.
     Deferrals, bans and capped collects break it. *)
  let complete = ref true in
  let searched = ref 0 and full_searches = ref 0 and delta_searches = ref 0 in
  let truncations = ref 0 and banned_count = ref 0 and deferred_count = ref 0 in
  let new_bans = ref 0 in
  (* [cut]: the deadline passed after a rule that collected or applied
     something, and the rules after it wait for a later step. *)
  let cut = ref false in
  (* One rule's turn in the pass. *)
  let visit i { rule; family; global; conditional } =
    let banned = (not full) && st.iteration < st.banned_until.(i) in
    (* Constrained rules are deferred to cool-down passes: their
       Check_only applications only ratify equalities between
       existing terms, so firing them once per fixpoint candidate
       reaches the same saturated e-graph as firing them every
       iteration, without paying their match collection each pass.
       Nonlocal rules are NOT deferred — they build terms that can
       unblock drivers which declare failure between iterations,
       before any cool-down. *)
    let deferred = (not full) && rule.Rule.constrained in
    if banned || deferred then begin
      if banned then incr banned_count else incr deferred_count;
      complete := false
    end
    else begin
      (* Globally-dependent rules search their delta and re-apply
         [cached_matches] (see {!state}): equivalent to a full
         search, so no full candidate set is forced even at
         cool-down. *)
      let last_gen = st.last_gen.(i) in
      let was_full = last_gen < 0 in
      let classes = candidates g family last_gen in
      incr searched;
      if was_full then incr full_searches else incr delta_searches;
      if classes = [] && not global then begin
        (* A local rule with no candidate class: an empty collect
           neither bans nor truncates, and there is no cache to
           re-apply, so all a search would do is advance the rule's
           generation. *)
        st.last_gen.(i) <- Egraph.generation g
      end
      else begin
        let times_banned = st.times_banned.(i) in
        let threshold =
          min max_matches_per_rule (st.match_limit lsl min times_banned 20)
        in
        (* One extra slot to observe the overflow. *)
        let cap = threshold + 1 in
        let since = if was_full then None else Some last_gen in
        let work = classes <> [] in
        let t0 = clock split ~work in
        let ms, class_truncated =
          collect rule classes ~cap ~since ~conditional g
        in
        lap split ~work t0 (fun sp dt -> sp.collect_s <- sp.collect_s +. dt);
        let n = List.length ms in
        total_matches := !total_matches + n;
        let applied =
          if (not full) && n > threshold then begin
            (* egg-style backoff: the rule overflowed its match budget;
               ban it for a ban length that doubles with every overflow
               and discard the matches. Its [last_gen] is left untouched
               so the skipped dirty classes are revisited on unban. *)
            st.times_banned.(i) <- times_banned + 1;
            st.banned_until.(i) <-
              st.iteration + (st.ban_length lsl min times_banned 20);
            incr new_bans;
            complete := false;
            if Sink.enabled sink then
              Sink.instant sink "rule-ban" ~cat:"rule"
                ~args:
                  [
                    ("rule", Event.Str rule.Rule.name);
                    ("banned_until", Event.Int st.banned_until.(i));
                    ("matches", Event.Int n);
                    ("threshold", Event.Int threshold);
                  ];
            Log.debug (fun m ->
                m "rule %s banned until iteration %d (%d matches > %d)"
                  rule.Rule.name st.banned_until.(i) n threshold);
            false
          end
          else begin
            (* A collect that hit its cap (or a class that hit the
               per-class match budget) may have dropped matches: apply
               what was gathered but leave [last_gen] untouched so the
               remainder is revisited, and refuse to call the pass
               complete. *)
            if n >= cap || class_truncated then begin
              incr truncations;
              complete := false
            end
            else st.last_gen.(i) <- Egraph.generation g;
            let to_apply =
              if global then begin
                (* A full collect is the complete current match set, so it
                   replaces the cache (a truncated one is replaced too —
                   [last_gen] stayed at -1, so the next search is again
                   full). A delta collect appends; a truncated delta may
                   append the same substitution twice on the retry, which
                   only wastes an idempotent re-application. *)
                let cached =
                  if was_full then ms
                  else List.rev_append ms st.cached_matches.(i)
                in
                st.cached_matches.(i) <- cached;
                cached
              end
              else ms
            in
            let work = to_apply <> [] in
            let t0 = clock split ~work in
            let hits = apply_bounded ~limits rule g to_apply in
            lap split ~work t0 (fun sp dt -> sp.apply_s <- sp.apply_s +. dt);
            total_hits := !total_hits + hits;
            (* The per-rule hit record the old [?hit_counter] hashtable
               used to carry: one instant event per rule per pass that
               actually merged classes. *)
            if hits > 0 && Sink.enabled sink then
              Sink.instant sink "rule-hit" ~cat:"rule"
                ~args:
                  [
                    ("rule", Event.Str rule.Rule.name);
                    ("hits", Event.Int hits);
                    ("matches", Event.Int n);
                  ];
            to_apply <> []
          end
        in
        (* With a deadline, the clock is read after each rule that
           collected or applied something. A pass the deadline cut
           short is not complete. *)
        if (classes <> [] || applied) && past_deadline deadline then begin
          cut := true;
          complete := false
        end
      end
    end
  in
  (* A loop whose body ends in the only call of [visit]: the compiler
     makes that call a jump, so no closure is allocated per pass and
     the counters above stay unboxed. *)
  let entries = st.index.entries and next = ref 0 in
  while (not !cut) && !next < Array.length entries do
    let i = !next in
    next := i + 1;
    visit i entries.(i)
  done;
  {
    p_matches = !total_matches;
    p_hits = !total_hits;
    p_complete = !complete;
    p_searched = !searched;
    p_full = !full_searches;
    p_delta = !delta_searches;
    p_truncated = !truncations;
    p_banned = !banned_count;
    p_deferred = !deferred_count;
    p_new_bans = !new_bans;
  }

let unban_all st =
  Array.fill st.banned_until 0 (Array.length st.banned_until) 0

let step ?(sink = Sink.null) ?invariant_check ?deadline ~limits ~confirm st g
    =
  (* Cooperative budget check, before the pass and again after a pass
     that merged nothing: discrete growth caps, then the wall clock. *)
  let budget_tripped () =
    if Egraph.num_nodes g > limits.max_nodes then Some Nodes
    else if Egraph.num_classes g > limits.max_classes then Some Classes
    else if past_deadline deadline then Some Deadline
    else None
  in
  let settle split =
    let t0 = clock split ~work:true in
    Egraph.rebuild g;
    lap split ~work:true t0 (fun sp dt -> sp.rebuild_s <- sp.rebuild_s +. dt);
    match invariant_check with Some f -> f g | None -> ()
  in
  (* One span per step (the scheduled pass plus, when it produced a
     fixpoint candidate and [confirm] is set, the cool-down pass run in
     the same iteration), closed with the step's totals and its
     {!split} plus an e-graph growth sample. *)
  let end_iteration ~cooldown ~split ~matches p =
    match split with
    | None -> ()
    | Some sp ->
        Sink.counter sink "egraph" ~cat:"egraph"
          ~args:
            [
              ("nodes", Event.Int (Egraph.num_nodes g));
              ("classes", Event.Int (Egraph.num_classes g));
            ];
        Sink.span_end sink "iteration" ~cat:"iteration"
          ~args:
            [
              ("matches", Event.Int matches);
              ("unions", Event.Int p.p_hits);
              ("rules_searched", Event.Int p.p_searched);
              ("full_searches", Event.Int p.p_full);
              ("delta_searches", Event.Int p.p_delta);
              ("truncated", Event.Int p.p_truncated);
              ("banned", Event.Int p.p_banned);
              ("deferred", Event.Int p.p_deferred);
              ("new_bans", Event.Int p.p_new_bans);
              ("cooldown", Event.Bool cooldown);
              ("collect_s", Event.Float sp.collect_s);
              ("apply_s", Event.Float sp.apply_s);
              ("rebuild_s", Event.Float sp.rebuild_s);
              ( "minor_words",
                Event.Int
                  (int_of_float (Gc.minor_words () -. sp.minor_words0)) );
            ]
  in
  match budget_tripped () with
  | Some b -> { outcome = Tripped b; matches = 0; unions = 0 }
  | None -> (
      let split =
        if Sink.enabled sink then begin
          Sink.span_begin sink "iteration" ~cat:"iteration"
            ~args:[ ("iteration", Event.Int st.iteration) ];
          Some
            {
              collect_s = 0.;
              apply_s = 0.;
              rebuild_s = 0.;
              minor_words0 = Gc.minor_words ();
            }
        end
        else None
      in
      let p = pass ~limits ~deadline ~sink ~split st g ~full:false in
      settle split;
      Log.debug (fun m ->
          m "iteration %d: %d matches, %d unions, %d nodes, %d classes"
            st.iteration p.p_matches p.p_hits (Egraph.num_nodes g)
            (Egraph.num_classes g));
      st.iteration <- st.iteration + 1;
      let ended outcome =
        end_iteration ~cooldown:false ~split ~matches:p.p_matches p;
        { outcome; matches = p.p_matches; unions = p.p_hits }
      in
      (* A pass that ended past the deadline, cut short or not, trips
         whatever it merged. *)
      if p.p_hits > 0 then
        ended (if past_deadline deadline then Tripped Deadline else Merged)
      else
        match budget_tripped () with
        | Some b -> ended (Tripped b)
        | None when p.p_complete ->
            (* Every rule searched every candidate class and nothing
               merged: a genuine fixpoint. *)
            ended Saturated
        | None when not confirm ->
            (* A fixpoint candidate the caller declined to confirm:
               deferred constrained rules and banned rules have not had
               their full pass. *)
            ended Unconfirmed
        | None ->
            (* No unions from the scheduled (incremental, ban-throttled)
               pass: a fixpoint candidate. Before declaring saturation,
               lift every ban and run a cool-down pass — the constrained
               rules fire over their complete match set (whose
               Check_only targets can appear anywhere without dirtying
               the matched class) and everything else catches up
               incrementally. Only an empty complete cool-down is a
               genuine fixpoint. *)
            Sink.instant sink "cooldown" ~cat:"iteration";
            unban_all st;
            let p2 = pass ~limits ~deadline ~sink ~split st g ~full:true in
            settle split;
            Log.debug (fun m ->
                m "iteration %d (cool-down): %d matches, %d unions"
                  st.iteration p2.p_matches p2.p_hits);
            st.iteration <- st.iteration + 1;
            let matches = p.p_matches + p2.p_matches in
            end_iteration ~cooldown:true ~split ~matches p2;
            let outcome =
              match budget_tripped () with
              | Some b -> Tripped b
              | None when p2.p_hits > 0 -> Merged
              | None when p2.p_complete -> Saturated
              | None -> Unconfirmed
            in
            { outcome; matches; unions = p2.p_hits })

let run ?(limits = default_limits) ?sink ?invariant_check ?state g rules =
  let st =
    match state with
    | None -> create_state (index rules)
    | Some st ->
        let own = st.index.rules in
        if not (own == rules || List.equal ( == ) own rules) then
          invalid_arg "Runner.run: the state indexes another rule list";
        st
  in
  let rec go (r : report) =
    if r.iterations >= limits.max_iterations then
      { r with tripped = Some Iterations }
    else
      let s = step ?sink ?invariant_check ~limits ~confirm:true st g in
      let r =
        {
          r with
          iterations = r.iterations + 1;
          matches = r.matches + s.matches;
          unions = r.unions + s.unions;
        }
      in
      match s.outcome with
      | Merged -> go r
      | Saturated -> { r with saturated = true }
      | Unconfirmed -> r
      | Tripped b -> { r with tripped = Some b }
  in
  let r =
    go
      {
        iterations = 0;
        saturated = false;
        nodes = 0;
        classes = 0;
        matches = 0;
        unions = 0;
        tripped = None;
      }
  in
  { r with nodes = Egraph.num_nodes g; classes = Egraph.num_classes g }
