(* Id-native evaluation: the rule-application core of {!Eval} ported to
   flat tuples ({!Flat}) and slot-compiled environments.

   Environments are [int array]s of interned value ids indexed by a
   per-rule variable slot table (-1 = unbound); argument patterns are
   compiled expressions whose constants carry precomputed ids; matching
   and join probes compare machine ints; relations are the
   open-addressing hash sets of {!Flat}.  Boxing happens only at true
   system boundaries: builtin calls and arithmetic unbox operands and
   re-intern results, ordering comparisons unbox (ids are
   allocation-ordered, never a value order), and observable output
   materializes boxed tuples.

   This is a *faithful twin*, not a reimplementation: literal orders
   come from the very same planning functions ({!Eval.order_body},
   {!Eval.group_vars}, {!Eval.split_shared}, ...), the index-versus-scan
   decision is the same test on the same positions, and every counter
   ({!Eval.counters}) is bumped at the same point of the same loop —
   so a run here is indistinguishable from the boxed evaluator's in
   fixpoint, derivation counts, and join statistics (checked by
   property against the boxed evaluator, which stays the reference
   for centralized runs and the model checker). *)

module Sset = Set.Make (String)

module Fset = Flat.Fset

(* ------------------------------------------------------------------ *)
(* Compiled expressions and environments. *)

(* A variable carries its slot and its source name — the name only
   feeds {!Env.Unbound_variable}, keeping error behaviour identical to
   the boxed evaluator's. *)
type iexpr =
  | XVar of int * string
  | XConst of int  (* precomputed id of the constant *)
  | XCall of string * iexpr array
  | XBinop of Ast.binop * iexpr * iexpr

type step =
  | SPos of { pred : string; pat : iexpr array }
  | SNeg of { pred : string; args : iexpr array }
  | SAssign of int * iexpr
  | SCond of Ast.cmp * iexpr * iexpr

(* Per-compilation-unit slot table. *)
type ctx = { tbl : (string, int) Hashtbl.t; mutable n : int }

let mkctx () = { tbl = Hashtbl.create 8; n = 0 }

let slot ctx x =
  match Hashtbl.find_opt ctx.tbl x with
  | Some s -> s
  | None ->
    let s = ctx.n in
    ctx.n <- s + 1;
    Hashtbl.add ctx.tbl x s;
    s

let rec compile_expr ctx (e : Ast.expr) : iexpr =
  match e with
  | Ast.Var x -> XVar (slot ctx x, x)
  | Ast.Const v -> XConst (Intern.id v)
  | Ast.Call (f, args) ->
    XCall (f, Array.of_list (List.map (compile_expr ctx) args))
  | Ast.Binop (op, a, b) ->
    XBinop (op, compile_expr ctx a, compile_expr ctx b)

let compile_args ctx (args : Ast.expr list) : iexpr array =
  Array.of_list (List.map (compile_expr ctx) args)

let compile_lit ctx (l : Ast.lit) : step =
  match l with
  | Ast.Pos a -> SPos { pred = a.Ast.pred; pat = compile_args ctx a.Ast.args }
  | Ast.Neg a -> SNeg { pred = a.Ast.pred; args = compile_args ctx a.Ast.args }
  | Ast.Assign (x, e) ->
    let e = compile_expr ctx e in  (* rhs slots before the target's *)
    SAssign (slot ctx x, e)
  | Ast.Cond (c, a, b) -> SCond (c, compile_expr ctx a, compile_expr ctx b)

let compile_body ctx (lits : Ast.lit list) : step array =
  Array.of_list (List.map (compile_lit ctx) lits)

let compile_head ctx (h : Ast.head) : iexpr array =
  Array.of_list
    (List.map
       (function
         | Ast.Plain e -> compile_expr ctx e
         | Ast.Agg _ ->
           raise (Eval.Eval_error "aggregate head in plain context"))
       h.Ast.head_args)

(* Arithmetic unboxes its operands (an array read each) and re-interns
   the result through the small-int memo — the boundary {!Intern}
   crossing the tentpole confines to computed values. *)
let arith_id op a b =
  let x = Value.as_int (Intern.get a) and y = Value.as_int (Intern.get b) in
  match op with
  | Ast.Add -> Intern.int_id (x + y)
  | Ast.Sub -> Intern.int_id (x - y)
  | Ast.Mul -> Intern.int_id (x * y)
  | Ast.Div ->
    if y = 0 then raise (Value.Type_error ("non-zero divisor", Intern.get b))
    else Intern.int_id (x / y)
  | Ast.Mod ->
    if y = 0 then raise (Value.Type_error ("non-zero divisor", Intern.get b))
    else Intern.int_id (x mod y)

let rec eval_x (env : int array) (e : iexpr) : int =
  match e with
  | XVar (s, name) ->
    let v = Array.unsafe_get env s in
    if v < 0 then raise (Env.Unbound_variable name) else v
  | XConst id -> id
  | XCall (f, args) ->
    let n = Array.length args in
    let vs = ref [] in
    for i = n - 1 downto 0 do
      vs := Intern.get (eval_x env args.(i)) :: !vs
    done;
    Intern.id (Builtins.apply f !vs)
  | XBinop (op, a, b) -> arith_id op (eval_x env a) (eval_x env b)

let eval_ids env (args : iexpr array) : int array =
  let n = Array.length args in
  let out = Array.make n 0 in
  for i = 0 to n - 1 do
    out.(i) <- eval_x env args.(i)
  done;
  out

(* Id twin of {!Env.eval_cmp}: equality is id equality; orderings unbox
   (ids are allocation-ordered) and use the engine's {!Value.compare}. *)
let eval_cmp_ids (c : Ast.cmp) a b =
  match c with
  | Ast.Eq -> a = b
  | Ast.Ne -> a <> b
  | _ ->
    let k = Value.compare (Intern.get a) (Intern.get b) in
    (match c with
    | Ast.Lt -> k < 0
    | Ast.Le -> k <= 0
    | Ast.Gt -> k > 0
    | Ast.Ge -> k >= 0
    | Ast.Eq | Ast.Ne -> assert false)

(* Match a compiled pattern against a flat tuple, binding into [env]
   in place (the caller restores on failure).  Mirrors
   {!Env.match_args}: arity first, then left to right — a bare unbound
   variable binds, anything else must evaluate to the same id, and an
   unbound variable inside a complex pattern is a mismatch, not an
   error. *)
let match_pat (env : int array) (pat : iexpr array) (t : int array) : bool =
  let n = Array.length pat in
  n = Array.length t
  &&
  let rec go i =
    i >= n
    ||
    match pat.(i) with
    | XVar (s, _) ->
      let cur = Array.unsafe_get env s in
      if cur < 0 then begin
        env.(s) <- t.(i);
        go (i + 1)
      end
      else cur = t.(i) && go (i + 1)
    | XConst id -> id = t.(i) && go (i + 1)
    | e -> (
      match eval_x env e with
      | id -> id = t.(i) && go (i + 1)
      | exception Env.Unbound_variable _ -> false)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Candidate selection — the id twin of [Eval.candidates_c]. *)

(* The argument positions ground under [env]: constants and bound bare
   variables, in ascending position order (identical to
   [Eval.ground_positions], so the index-versus-scan decision — and the
   column set probed — coincides with the boxed path's). *)
let bound_cols (env : int array) (pat : iexpr array) : (int * int) list =
  let acc = ref [] in
  for i = Array.length pat - 1 downto 0 do
    match pat.(i) with
    | XConst id -> acc := (i, id) :: !acc
    | XVar (s, _) -> if env.(s) >= 0 then acc := (i, env.(s)) :: !acc
    | _ -> ()
  done;
  !acc

(* An iterator over the candidate tuples for matching [pat] against
   [pred] under [env], bumping the same counter the boxed
   [candidates_c] would. *)
let candidates (st : Eval.counters) fdb (env : int array) pred
    (pat : iexpr array) : (int array -> unit) -> unit =
  match bound_cols env pat with
  | [] ->
    st.Eval.c_scans <- st.Eval.c_scans + 1;
    fun f -> Fset.iter f (Flat.relation fdb pred)
  | bound ->
    st.Eval.c_index_hits <- st.Eval.c_index_hits + 1;
    let cols = List.map fst bound in
    let key = Array.of_list (List.map snd bound) in
    let bucket = Flat.lookup fdb pred ~cols ~key in
    fun f -> List.iter f bucket

(* ------------------------------------------------------------------ *)
(* Body evaluation. *)

(* Enumerate the satisfying environments of compiled [steps] starting
   from [env0], prepending frozen copies to [acc] — the twin of
   [Eval.body_envs_from].  The environment flows through per-step
   scratch buffers: a candidate match blits the incoming bindings and
   binds in place, so only *satisfying* environments pay an
   allocation. *)
let body_envs_from (st : Eval.counters) fdb ~nslots (env0 : int array)
    (steps : step array) (acc : int array list) : int array list =
  let nsteps = Array.length steps in
  let scratch = Array.init (max nsteps 1) (fun _ -> Array.make nslots (-1)) in
  let acc = ref acc in
  let rec go (env : int array) si =
    if si >= nsteps then acc := Array.copy env :: !acc
    else
      match steps.(si) with
      | SPos { pred; pat } ->
        let buf = scratch.(si) in
        candidates st fdb env pred pat (fun t ->
            st.Eval.c_enumerated <- st.Eval.c_enumerated + 1;
            Array.blit env 0 buf 0 nslots;
            if match_pat buf pat t then begin
              st.Eval.c_matched <- st.Eval.c_matched + 1;
              go buf (si + 1)
            end)
      | SNeg { pred; args } ->
        let t = eval_ids env args in
        if Flat.mem fdb pred t then () else go env (si + 1)
      | SAssign (s, rhs) ->
        let v = eval_x env rhs in
        let cur = env.(s) in
        if cur < 0 then begin
          let buf = scratch.(si) in
          Array.blit env 0 buf 0 nslots;
          buf.(s) <- v;
          go buf (si + 1)
        end
        else if cur = v then go env (si + 1)
      | SCond (c, a, b) ->
        if eval_cmp_ids c (eval_x env a) (eval_x env b) then go env (si + 1)
  in
  go env0 0;
  !acc

(* Consistent union of two frozen environments — the twin of
   {!Env.merge} (recombining a per-tuple delta binding with its group's
   shared environment). *)
let merge_env (a : int array) (b : int array) : int array option =
  let n = Array.length b in
  let out = Array.copy b in
  let rec go s =
    s >= n
    ||
    let va = a.(s) in
    (if va >= 0 then
       let vb = out.(s) in
       if vb < 0 then begin
         out.(s) <- va;
         true
       end
       else vb = va
     else true)
    && go (s + 1)
  in
  if go 0 then Some out else None

(* ------------------------------------------------------------------ *)
(* Batched delta joins — the twin of {!Eval.delta_envs}. *)

(* One compiled (rule, delta position) activation: the batched
   decomposition, a self-contained compilation unit (own slot table,
   own compiled head). *)
type activation = {
  b_cols : int list;  (* delta group columns *)
  b_col_slots : int list;  (* their slots, positionally *)
  b_dpat : iexpr array;  (* delta-atom pattern *)
  b_shared : step array;
  b_per_tuple : step array;
  b_nslots : int;
  b_head : iexpr array;
}

let compile_activation ~card (rule : Ast.rule) (delta_atom : Ast.atom)
    (rest : Ast.lit list) : activation =
  let gvars = Eval.group_vars delta_atom rest in
  let cols_vars = Eval.group_cols delta_atom gvars in
  let ordered =
    Eval.order_body ~card ~bound:(Eval.atom_binds delta_atom) rest
  in
  let shared, per_tuple = Eval.split_shared gvars ordered in
  let bctx = mkctx () in
  let b_dpat = compile_args bctx delta_atom.Ast.args in
  let b_col_slots = List.map (fun (_, x) -> slot bctx x) cols_vars in
  let b_shared = compile_body bctx shared in
  let b_per_tuple = compile_body bctx per_tuple in
  let b_head = compile_head bctx rule.Ast.head in
  {
    b_cols = List.map fst cols_vars;
    b_col_slots;
    b_dpat;
    b_shared;
    b_per_tuple;
    b_nslots = bctx.n;
    b_head;
  }

(* All satisfying environments of the activation against [fdb] with
   the delta read from [dset] — the twin of {!Eval.delta_envs};
   [b.b_head] instantiates them.  Counter bumps mirror the boxed join
   exactly: one group probe per activation, delta tuples by
   cardinality, one group per distinct key, enumerated/matched per
   delta tuple, and the shared/per-tuple phases accounted through
   [body_envs_from]. *)
let delta_envs (st : Eval.counters) fdb (b : activation) (dset : Fset.t) :
    int array list =
  st.Eval.c_group_probes <- st.Eval.c_group_probes + 1;
  st.Eval.c_delta_tuples <- st.Eval.c_delta_tuples + Fset.cardinal dset;
  let nslots = b.b_nslots in
  let scratch = Array.make nslots (-1) in
  List.fold_left
    (fun acc (key, tuples) ->
      st.Eval.c_groups <- st.Eval.c_groups + 1;
      let tuple_envs =
        List.fold_left
          (fun acc t ->
            st.Eval.c_enumerated <- st.Eval.c_enumerated + 1;
            Array.fill scratch 0 nslots (-1);
            if match_pat scratch b.b_dpat t then begin
              st.Eval.c_matched <- st.Eval.c_matched + 1;
              Array.copy scratch :: acc
            end
            else acc)
          [] tuples
      in
      match tuple_envs with
      | [] -> acc
      | _ ->
        let env_g = Array.make nslots (-1) in
        List.iteri
          (fun i s -> env_g.(s) <- key.(i))
          b.b_col_slots;
        let shared_envs =
          body_envs_from st fdb ~nslots env_g b.b_shared []
        in
        List.fold_left
          (fun acc env_s ->
            List.fold_left
              (fun acc env_t ->
                match merge_env env_t env_s with
                | None -> acc
                | Some env ->
                  body_envs_from st fdb ~nslots env b.b_per_tuple acc)
              acc tuple_envs)
          acc shared_envs)
    []
    (Flat.group_set dset ~cols:b.b_cols)

(* ------------------------------------------------------------------ *)
(* Strand execution — the wire path's twin of {!Plan.execute_batch}. *)

type istrand = {
  is_rule : Ast.rule;
  is_delta_pred : string;
  is_act : activation;
}

let head_pred (s : istrand) = s.is_rule.Ast.head.Ast.head_pred
let head_loc (s : istrand) = s.is_rule.Ast.head.Ast.head_loc
let delta_pred (s : istrand) = s.is_delta_pred

let of_strand (s : Plan.strand) : istrand =
  match s.Plan.delta_index with
  | None -> invalid_arg "Ideval.of_strand: strand has no delta position"
  | Some i ->
    let delta_atom =
      match List.nth s.Plan.strand_rule.Ast.body i with
      | Ast.Pos a -> a
      | _ -> invalid_arg "Ideval.of_strand: delta position is not positive"
    in
    let rest =
      List.filteri (fun j _ -> j <> i) s.Plan.strand_rule.Ast.body
    in
    {
      is_rule = s.Plan.strand_rule;
      is_delta_pred = delta_atom.Ast.pred;
      (* The strand executor plans without cardinalities
         ([Plan.execute_batch] defaults [card] to the zero function), so
         the compiled plan is call-independent: compiled once here. *)
      is_act =
        compile_activation ~card:(fun _ -> 0) s.Plan.strand_rule delta_atom
          rest;
    }

(* Head id tuples of one strand run over a whole delta batch — the
   twin of {!Plan.execute_batch} (same counters, same multiset of
   heads; order differs and is canonicalized by the caller). *)
let execute_batch ?(stats = Eval.counters ()) fdb
    ~(delta_tuples : int array list) (s : istrand) : int array list =
  match delta_tuples with
  | [] -> []
  | _ ->
    let dset = Fset.create ~capacity:(List.length delta_tuples * 2) () in
    List.iter (fun t -> ignore (Fset.add dset t)) delta_tuples;
    List.rev_map
      (fun env -> eval_ids env s.is_act.b_head)
      (delta_envs stats fdb s.is_act dset)

(* ------------------------------------------------------------------ *)
(* Aggregates — twins of [Eval.apply_agg_rule]'s two paths. *)

let agg_fold_ids (a : Ast.agg) (ids : int list) : int =
  match a, ids with
  | _, [] -> raise (Eval.Eval_error "aggregate over empty group")
  | Ast.Min, v :: rest ->
    List.fold_left
      (fun m v ->
        if Value.compare (Intern.get v) (Intern.get m) < 0 then v else m)
      v rest
  | Ast.Max, v :: rest ->
    List.fold_left
      (fun m v ->
        if Value.compare (Intern.get v) (Intern.get m) > 0 then v else m)
      v rest
  | Ast.Count, vs -> Intern.int_id (List.length vs)
  | Ast.Sum, vs ->
    Intern.int_id
      (List.fold_left (fun acc v -> acc + Value.as_int (Intern.get v)) 0 vs)

module Ktbl = Hashtbl.Make (struct
  type t = int array

  let equal = Fset.tuple_eq
  let hash = Fset.tuple_hash
end)

let apply_agg_rule_indexed (st : Eval.counters) fdb (a : Ast.atom)
    (slots : Eval.agg_slot list) : int array list =
  let arity = List.length a.Ast.args in
  let cols =
    List.sort_uniq Stdlib.compare
      (List.filter_map
         (function Eval.Group i -> Some i | Eval.Fold _ -> None)
         slots)
  in
  let col_slot = List.mapi (fun k c -> (c, k)) cols in
  st.Eval.c_index_hits <- st.Eval.c_index_hits + 1;
  List.fold_left
    (fun acc (key, tuples) ->
      let rows =
        List.fold_left
          (fun acc (t : int array) ->
            st.Eval.c_enumerated <- st.Eval.c_enumerated + 1;
            if Array.length t = arity then begin
              st.Eval.c_matched <- st.Eval.c_matched + 1;
              t :: acc
            end
            else acc)
          [] tuples
      in
      match rows with
      | [] -> acc
      | _ ->
        let head =
          Array.of_list
            (List.map
               (function
                 | Eval.Group i -> key.(List.assoc i col_slot)
                 | Eval.Fold (agg, i) ->
                   agg_fold_ids agg (List.map (fun t -> t.(i)) rows))
               slots)
        in
        head :: acc)
    []
    (Flat.groups fdb a.Ast.pred ~cols)

let apply_agg_rule (st : Eval.counters) fdb (r : Ast.rule) : int array list =
  match Eval.agg_index_shape r with
  | Some (a, slots) -> apply_agg_rule_indexed st fdb a slots
  | None ->
    let ctx = mkctx () in
    let steps =
      compile_body ctx
        (Eval.order_body ~card:(fun p -> Flat.cardinal fdb p) r.Ast.body)
    in
    (* Head compilation for aggregate rules: plain arguments compile as
       expressions, aggregate positions record their source slot. *)
    let hslots =
      List.map
        (function
          | Ast.Plain e -> `Plain (compile_expr ctx e)
          | Ast.Agg (agg, x) -> `Agg (agg, slot ctx x, x))
        r.Ast.head.Ast.head_args
    in
    let nslots = ctx.n in
    let envs =
      body_envs_from st fdb ~nslots (Array.make nslots (-1)) steps []
    in
    let tbl : int list list ref Ktbl.t = Ktbl.create 16 in
    let order = ref [] in
    List.iter
      (fun env ->
        (* Group key: plain head values by id, -1 marking aggregate
           positions (ids are non-negative, so the sentinel is safe). *)
        let key =
          Array.of_list
            (List.map
               (function
                 | `Plain e -> eval_x env e
                 | `Agg _ -> -1)
               hslots)
        in
        let aggvals =
          List.filter_map
            (function
              | `Plain _ -> None
              | `Agg (_, s, x) ->
                let v = env.(s) in
                if v < 0 then raise (Env.Unbound_variable x) else Some v)
            hslots
        in
        match Ktbl.find_opt tbl key with
        | Some rows -> rows := aggvals :: !rows
        | None ->
          Ktbl.replace tbl key (ref [ aggvals ]);
          order := key :: !order)
      envs;
    List.rev_map
      (fun key ->
        let rows = !(Ktbl.find tbl key) in
        let n_aggs = List.length (List.hd rows) in
        let columns =
          List.init n_aggs (fun i -> List.map (fun row -> List.nth row i) rows)
        in
        let head = Array.copy key in
        let rec fill i hs cols =
          match hs with
          | [] -> ()
          | `Plain _ :: hs' -> fill (i + 1) hs' cols
          | `Agg (agg, _, _) :: hs' -> (
            match cols with
            | col :: cols' ->
              head.(i) <- agg_fold_ids agg col;
              fill (i + 1) hs' cols'
            | [] -> raise (Eval.Eval_error "aggregate column mismatch"))
        in
        fill 0 hslots columns;
        head)
      !order

(* ------------------------------------------------------------------ *)
(* Fixpoint drivers — twins of [Eval.apply_plain_rules] /
   [eval_stratum_seminaive] / [seminaive], mutating a linearly-owned
   flat database. *)

(* Derived head tuples of applying [rules], optionally delta-restricted.
   Plans per application against live cardinalities, exactly like the
   boxed core. *)
let apply_plain_rules (st : Eval.counters) fdb ?deltas ~rec_preds rules
    ~count : Flat.t =
  let card p = Flat.cardinal fdb p in
  let derived = Flat.create () in
  List.iter
    (fun (r : Ast.rule) ->
      let produce head envs =
        List.iter
          (fun env ->
            incr count;
            ignore (Flat.add derived r.Ast.head.Ast.head_pred (eval_ids env head)))
          envs
      in
      match deltas with
      | None ->
        let ctx = mkctx () in
        let steps = compile_body ctx (Eval.order_body ~card r.Ast.body) in
        let head = compile_head ctx r.Ast.head in
        let nslots = ctx.n in
        produce head
          (body_envs_from st fdb ~nslots (Array.make nslots (-1)) steps [])
      | Some delta_fdb ->
        let positions = Eval.delta_positions rec_preds r.Ast.body in
        List.iter
          (fun i ->
            let delta_atom =
              match List.nth r.Ast.body i with
              | Ast.Pos a -> a
              | _ -> assert false
            in
            let d = Flat.relation delta_fdb delta_atom.Ast.pred in
            if Fset.is_empty d then ()
            else begin
              let rest = List.filteri (fun j _ -> j <> i) r.Ast.body in
              let act = compile_activation ~card r delta_atom rest in
              produce act.b_head (delta_envs st fdb act d)
            end)
          positions)
    rules;
  derived

(* New tuples of [derived] absent from [fdb]. *)
let fresh_of fdb derived : Flat.t =
  let out = Flat.create () in
  Flat.iter derived (fun pred t ->
      if not (Flat.mem fdb pred t) then ignore (Flat.add out pred t));
  out

let apply_agg_rules (st : Eval.counters) fdb agg_rules ~count =
  List.iter
    (fun (r : Ast.rule) ->
      List.iter
        (fun t ->
          incr count;
          ignore (Flat.add fdb r.Ast.head.Ast.head_pred t))
        (apply_agg_rule st fdb r))
    agg_rules

let eval_stratum (st : Eval.counters) fdb stratum (p : Ast.program)
    ~max_rounds ~rounds ~count : bool =
  let rules = Eval.rules_of_stratum p stratum in
  let agg_rules, plain_rules = Eval.split_agg rules in
  apply_agg_rules st fdb agg_rules ~count;
  let rec_preds =
    List.fold_left
      (fun s (r : Ast.rule) -> Sset.add r.Ast.head.Ast.head_pred s)
      Sset.empty plain_rules
  in
  let derived = apply_plain_rules st fdb ~rec_preds plain_rules ~count in
  let delta = fresh_of fdb derived in
  Flat.union_into fdb delta;
  incr rounds;
  let rec loop delta =
    if Flat.is_empty delta then true
    else if !rounds >= max_rounds then false
    else begin
      incr rounds;
      let derived =
        apply_plain_rules st fdb ~deltas:delta ~rec_preds plain_rules ~count
      in
      let delta' = fresh_of fdb derived in
      Flat.union_into fdb delta';
      loop delta'
    end
  in
  loop delta

let seminaive_stratum ?(max_rounds = 10_000) ?stats (p : Ast.program)
    (stratum : string list) (fdb : Flat.t) : bool =
  let st = Eval.counters () in
  let rounds = ref 0 and count = ref 0 in
  let converged = eval_stratum st fdb stratum p ~max_rounds ~rounds ~count in
  Option.iter (fun c -> Eval.accumulate c (Eval.snapshot st)) stats;
  converged

type outcome = {
  rounds : int;
  derivations : int;
  converged : bool;
  stats : Eval.stats;
}

let seminaive ?(max_rounds = 10_000) ?stats (p : Ast.program)
    (info : Analysis.info) (fdb : Flat.t) : outcome =
  let st = Eval.counters () in
  let rounds = ref 0 and count = ref 0 in
  let converged =
    List.fold_left
      (fun ok stratum ->
        if not ok then ok
        else eval_stratum st fdb stratum p ~max_rounds ~rounds ~count)
      true info.Analysis.strata
  in
  let s = Eval.snapshot st in
  Option.iter (fun c -> Eval.accumulate c s) stats;
  { rounds = !rounds; derivations = !count; converged; stats = s }

(* Seeded delta-driven re-derivation of one view refresh stratum.

   [fdb] holds the stratum's previous relations (its old fixpoint) on
   top of the current support; [delta] holds the support tuples added
   since that fixpoint.  Each round runs every strand whose trigger
   predicate has delta tuples through {!execute_batch}; head tuples not
   already in [fdb] join it and become the next round's delta, until
   nothing new appears.  This is semi-naive iteration started from a
   previous fixpoint instead of from scratch — sound exactly when the
   stratum's rules are plain and monotone and the support change is
   purely additive (the refresh loop falls back to from-scratch
   recomputation otherwise). *)
let refresh_stratum ?(stats = Eval.counters ()) (fdb : Flat.t)
    ~(strands : istrand list) ~(delta : Flat.t) : unit =
  let rec loop (delta : Flat.t) =
    if Flat.is_empty delta then ()
    else begin
      let derived = Flat.create () in
      List.iter
        (fun s ->
          match Fset.elements (Flat.relation delta s.is_delta_pred) with
          | [] -> ()
          | tuples ->
            List.iter
              (fun t ->
                ignore (Flat.add derived s.is_rule.Ast.head.Ast.head_pred t))
              (execute_batch ~stats fdb ~delta_tuples:tuples s))
        strands;
      let fresh = fresh_of fdb derived in
      Flat.union_into fdb fresh;
      loop fresh
    end
  in
  loop delta

(* Convenience for differential tests: run a whole program id-natively
   from its facts, returning the materialized boxed fixpoint alongside
   the run accounting. *)
let run_program ?max_rounds (p : Ast.program) :
    (Store.t * outcome, Analysis.error) result =
  match Analysis.analyze p with
  | Error e -> Error e
  | Ok info ->
    let fdb = Flat.of_store (Store.of_facts p.Ast.facts) in
    let o = seminaive ?max_rounds p info fdb in
    Ok (Flat.to_store fdb, o)
