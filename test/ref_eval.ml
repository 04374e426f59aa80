(* A textbook stratified semi-naive evaluator: the reference the engine's
   fast paths are checked against.  It shares no code with [Ndlog.Eval]
   or [Ndlog.Ideval] and uses only the AST, environments, values, the
   analysis strata and the store's set operations: rule bodies run in
   source order as nested-loop scans over whole relations (no index, no
   grouped probe, no join reordering), each delta tuple seeds its own
   activation, and aggregates enumerate every satisfying environment.

   The round structure is the one semi-naive evaluation prescribes, so
   rounds, derivations (head tuples produced, duplicates included) and
   convergence compare exactly with the engine's: per stratum, aggregate
   rules run once at entry in program order, then one full round over
   the plain rules, then delta rounds until nothing new appears or
   [max_rounds] is reached. *)

module Ast = Ndlog.Ast
module Env = Ndlog.Env
module Store = Ndlog.Store
module Value = Ndlog.Value

type outcome = {
  db : Store.t;
  rounds : int;
  derivations : int;
  converged : bool;
  visits : int;  (* candidate tuples visited by scans, delta tuples included *)
}

(* All satisfying environments of [body] from [env], in source order. *)
let rec body_envs visits db env (body : Ast.lit list) : Env.t list =
  match body with
  | [] -> [ env ]
  | Ast.Pos a :: rest ->
    Store.Tset.fold
      (fun t acc ->
        incr visits;
        match Env.match_args env a.Ast.args t with
        | Some env' -> body_envs visits db env' rest @ acc
        | None -> acc)
      (Store.relation a.Ast.pred db)
      []
  | Ast.Neg a :: rest ->
    let t = Array.of_list (List.map (Env.eval env) a.Ast.args) in
    if Store.mem a.Ast.pred t db then [] else body_envs visits db env rest
  | Ast.Assign (x, e) :: rest -> (
    let v = Env.eval env e in
    match Env.find_opt x env with
    | None -> body_envs visits db (Env.bind x v env) rest
    | Some v' -> if Value.equal v v' then body_envs visits db env rest else [])
  | Ast.Cond (c, a, b) :: rest ->
    if Env.eval_cmp c (Env.eval env a) (Env.eval env b) then
      body_envs visits db env rest
    else []

(* One semi-naive activation: the positive literal at body position [i]
   bound to the single delta tuple [t], the rest of the body in source
   order against [db]. *)
let activation ?(visits = ref 0) db (r : Ast.rule) i t : Env.t list =
  match List.nth r.Ast.body i with
  | Ast.Pos a -> (
    incr visits;
    match Env.match_args Env.empty a.Ast.args t with
    | None -> []
    | Some env ->
      body_envs visits db env (List.filteri (fun j _ -> j <> i) r.Ast.body))
  | _ -> invalid_arg "Ref_eval.activation: not a positive literal"

let fold_agg (a : Ast.agg) (vs : Value.t list) : Value.t =
  let best keep = function
    | v :: rest ->
      List.fold_left (fun m v -> if keep (Value.compare v m) then v else m) v rest
    | [] -> invalid_arg "Ref_eval: empty group"
  in
  match a with
  | Ast.Min -> best (fun c -> c < 0) vs
  | Ast.Max -> best (fun c -> c > 0) vs
  | Ast.Count -> Value.Int (List.length vs)
  | Ast.Sum -> Value.Int (List.fold_left (fun s v -> s + Value.as_int v) 0 vs)

(* An aggregate rule by enumeration: group every satisfying environment
   by the plain head values, fold each aggregate over its group. *)
let aggregate ?(visits = ref 0) db (r : Ast.rule) : Store.Tuple.t list =
  let args = r.Ast.head.Ast.head_args in
  let key env =
    List.map
      (function Ast.Plain e -> Some (Env.eval env e) | Ast.Agg _ -> None)
      args
  in
  let same = List.equal (Option.equal Value.equal) in
  let groups =
    List.fold_left
      (fun groups env ->
        let k = key env in
        match List.partition (fun (k', _) -> same k k') groups with
        | [ (_, envs) ], others -> (k, env :: envs) :: others
        | _, others -> (k, [ env ]) :: others)
      []
      (body_envs visits db Env.empty r.Ast.body)
  in
  List.map
    (fun (k, envs) ->
      Array.of_list
        (List.map2
           (fun arg v ->
             match arg, v with
             | Ast.Agg (a, x), _ -> fold_agg a (List.map (Env.find x) envs)
             | Ast.Plain _, Some v -> v
             | Ast.Plain _, None -> assert false)
           args k))
    groups

let seminaive ?(max_rounds = 10_000) (p : Ast.program)
    (info : Ndlog.Analysis.info) (db : Store.t) : outcome =
  let visits = ref 0 and rounds = ref 0 and derivations = ref 0 in
  let produce (r : Ast.rule) tuples acc =
    List.fold_left
      (fun acc t ->
        incr derivations;
        Store.add r.Ast.head.Ast.head_pred t acc)
      acc tuples
  in
  let heads (r : Ast.rule) envs =
    List.map
      (fun env ->
        Array.of_list
          (List.map
             (function
               | Ast.Plain e -> Env.eval env e
               | Ast.Agg _ -> invalid_arg "Ref_eval: aggregate in a plain head")
             r.Ast.head.Ast.head_args))
      envs
  in
  let stratum (db, converged) preds =
    if not converged then (db, false)
    else
      let rules =
        List.filter
          (fun (r : Ast.rule) -> List.mem r.Ast.head.Ast.head_pred preds)
          p.Ast.rules
      in
      let aggs, plain =
        List.partition (fun (r : Ast.rule) -> Ast.has_aggregate r.Ast.head) rules
      in
      let db =
        List.fold_left (fun db r -> produce r (aggregate ~visits db r) db) db aggs
      in
      let recursive q =
        List.exists (fun (r : Ast.rule) -> r.Ast.head.Ast.head_pred = q) plain
      in
      (* One round: every rule in full, or every (rule, recursive
         positive literal, delta tuple) activation. *)
      let round db delta =
        List.fold_left
          (fun acc (r : Ast.rule) ->
            match delta with
            | None -> produce r (heads r (body_envs visits db Env.empty r.Ast.body)) acc
            | Some delta ->
              List.fold_left
                (fun acc (i, lit) ->
                  match lit with
                  | Ast.Pos a when recursive a.Ast.pred ->
                    Store.Tset.fold
                      (fun t acc -> produce r (heads r (activation ~visits db r i t)) acc)
                      (Store.relation a.Ast.pred delta)
                      acc
                  | _ -> acc)
                acc
                (List.mapi (fun i l -> (i, l)) r.Ast.body))
          Store.empty plain
      in
      let rec loop db delta =
        if Store.is_empty delta then (db, true)
        else if !rounds >= max_rounds then (db, false)
        else begin
          incr rounds;
          let delta' = Store.diff (round db (Some delta)) db in
          loop (Store.union db delta') delta'
        end
      in
      incr rounds;
      let delta = Store.diff (round db None) db in
      loop (Store.union db delta) delta
  in
  let db, converged = List.fold_left stratum (db, true) info.Ndlog.Analysis.strata in
  { db; rounds = !rounds; derivations = !derivations; converged; visits = !visits }

(* Analyze and evaluate a self-contained program from its facts. *)
let run ?max_rounds (p : Ast.program) : outcome =
  seminaive ?max_rounds p (Ndlog.Analysis.analyze_exn p) (Store.of_facts p.Ast.facts)
