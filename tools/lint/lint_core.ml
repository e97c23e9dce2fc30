(* Lint_core: the analysis engine behind vmor_lint.

   Parses .ml/.mli files with compiler-libs and enforces the project
   rules from DESIGN.md ("Static analysis & numerical contracts" and
   "Domain safety").  The CLI front end lives in vmor_lint.ml; this
   module is a library so the test suite can lint in-memory sources
   and exercise the interprocedural classifier directly.

   Two analysis layers:

   1. Per-file AST rules (float-eq, obj-magic, lib-printf,
      raw-matrix-alloc, mli-pair, dim-guard, no-bare-failwith,
      raw-clock, raw-gc, raw-quantile, toplevel-mutable,
      unsync-global-write, parse-error) plus the meta diagnostic
      stale-allowlist.

   2. A whole-program domain-safety classifier: per-module shared
      mutable state inventory, a cross-module call graph over lib/,
      and a fixpoint (the same delegation machinery dim-guard uses)
      that classifies every exported value as
      domain_safe | reads_shared | writes_shared.  Unallowlisted
      writes_shared exports surface as shared-write violations. *)

(* ---------- rules ---------- *)

(* Single source of truth: every diagnostic [report] can emit, with its
   one-line doc ([--list-rules] output).  [report] hard-fails on a rule
   id missing from this table, so a dispatch site cannot emit an
   unlisted rule; the fixture coverage check (--check-rule-coverage)
   enforces the converse — every rule here must be exercised by the
   seeded fixtures. *)
let rules =
  [
    ("float-eq",
     "polymorphic =/<>/==/!= against a float literal; use the Contract \
      comparisons");
    ("obj-magic", "Obj.magic anywhere");
    ("lib-printf", "stdout printing inside library code (lib/)");
    ("raw-matrix-alloc",
     "Array.make (r * c) matrix allocation outside Mat/Cmat");
    ("mli-pair", "a lib/ .ml without a sibling .mli");
    ("dim-guard",
     "exported lib/la function consuming >= 2 operands without a \
      dimension guard");
    ("no-bare-failwith",
     "bare failwith in library code; use the Robust.Error taxonomy");
    ("raw-clock",
     "Unix.gettimeofday / Sys.time outside lib/obs (Obs.Clock is the \
      clock)");
    ("raw-gc",
     "Gc.stat / quick_stat / counters / minor_words outside lib/obs \
      (Obs.Prof is the GC reader)");
    ("raw-domain-spawn",
     "Domain.spawn outside lib/par (Par.tiles / Par.map_list own the \
      worker pool)");
    ("raw-quantile",
     "quantile/percentile computed outside lib/obs and not through \
      Obs.Clock.quantile (the one nearest-rank implementation)");
    ("toplevel-mutable",
     "module-level mutable state in lib/ (ref, mutable record, array, \
      Hashtbl, Buffer, lazy); domains race on it");
    ("unsync-global-write",
     "write to module-level mutable state in lib/ outside a sync \
      boundary (Mutex.protect)");
    ("unbudgeted-loop",
     "while / let-rec loop in a budget-mandatory kernel file \
      (lib/la/ksolve.ml, lib/ode/) that never \
      polls Robust.Budget; annotate [@vmor.unbudgeted \"reason\"] if \
      structurally bounded");
    ("stale-allowlist",
     "an allowlist entry that matches zero findings; exemptions must \
      not outlive their justification");
    ("shared-write",
     "[--domain-safety] an exported lib/ value classified \
      writes_shared and not allowlisted");
    ("parse-error", "file does not parse (never allowlisted)");
  ]

let rule_ids = List.map fst rules

type violation = { file : string; line : int; rule : string; msg : string }

(* The accumulator threaded through a run. *)
type ctx = { mutable out : violation list }

let report ctx file line rule msg =
  if not (List.mem rule rule_ids) then begin
    Printf.eprintf
      "vmor_lint: internal error: dispatch emitted unknown rule %S\n" rule;
    exit 3
  end;
  ctx.out <- { file; line; rule; msg } :: ctx.out

(* ---------- path predicates ---------- *)

let segments path = String.split_on_char '/' path

let in_lib path = List.mem "lib" (segments path)

let after_lib path =
  let rec scan = function
    | "lib" :: rest -> Some rest
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan (segments path)

let in_lib_la path =
  match after_lib path with Some ("la" :: _) -> true | _ -> false

(* Obs.Clock is the one blessed home of raw wall-clock reads. *)
let in_lib_obs path =
  match after_lib path with Some ("obs" :: _) -> true | _ -> false

(* lib/par's pool is the one blessed home of Domain.spawn: everything else
   must go through the Par primitives so determinism, budget latching
   and pool sizing stay in one place. *)
let in_lib_par path =
  match after_lib path with Some ("par" :: _) -> true | _ -> false

let basename path =
  match List.rev (segments path) with b :: _ -> b | [] -> path

(* Mat/Cmat own the raw row-major storage; everyone else must use them. *)
let owns_matrix_storage path =
  in_lib_la path && List.mem (basename path) [ "mat.ml"; "cmat.ml" ]

(* ---------- parsing ---------- *)

let parse_lexbuf lexbuf path kind =
  Location.init lexbuf path;
  match kind with
  | `Impl -> `Impl (Parse.implementation lexbuf)
  | `Intf -> `Intf (Parse.interface lexbuf)

let parse_file path kind =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse_lexbuf (Lexing.from_channel ic) path kind)

let parse_string path kind source =
  parse_lexbuf (Lexing.from_string source) path kind

(* ---------- AST helpers ---------- *)

open Parsetree

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

let ident_name (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (Longident.flatten txt)
  | _ -> None

let is_float_literal (e : expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Longident.Lident ("~-." | "~+."); _ }; _ },
        [ (_, { pexp_desc = Pexp_constant (Pconst_float _); _ }) ] ) ->
      true
  | _ -> false

(* Iterate expressions of a structure, calling [f] on each. *)
let iter_expressions (str : structure) (f : expression -> unit) =
  let open Ast_iterator in
  let it =
    { default_iterator with
      expr = (fun self e -> f e; default_iterator.expr self e)
    }
  in
  it.structure it str

let iter_sub_expressions (e : expression) (f : expression -> unit) =
  let open Ast_iterator in
  let it =
    { default_iterator with
      expr = (fun self e -> f e; default_iterator.expr self e)
    }
  in
  it.expr it e

(* Binding name of a simple [let x = ...] / [let (x : t) = ...]. *)
let binding_name (vb : value_binding) =
  match vb.pvb_pat.ppat_desc with
  | Ppat_var { txt; _ }
  | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> Some txt
  | _ -> None

(* Does a value binding carry [@@vmor.sync "..."] (or [@@sync "..."])? *)
let sync_attr (vb : value_binding) =
  List.exists
    (fun (a : attribute) ->
      a.attr_name.txt = "vmor.sync" || a.attr_name.txt = "sync")
    vb.pvb_attributes

(* ---------- expression-level rules (float-eq, obj-magic, lib-printf,
   raw-matrix-alloc, no-bare-failwith, raw-clock, raw-gc) ---------- *)

let stdout_printers =
  [ [ "Printf"; "printf" ]; [ "print_endline" ]; [ "print_string" ];
    [ "print_float" ]; [ "print_int" ]; [ "print_newline" ];
    [ "print_char" ]; [ "Format"; "printf" ] ]

let check_expression ctx path (e : expression) =
  let line = line_of e.pexp_loc in
  (match e.pexp_desc with
   | Pexp_apply (fn, args) -> (
       match ident_name fn with
       | Some [ ("=" | "<>" | "==" | "!=") as op ]
         when List.exists (fun (_, a) -> is_float_literal a) args ->
           report ctx path line "float-eq"
             (Printf.sprintf
                "polymorphic (%s) on a float literal; use Contract.is_zero, \
                 Contract.float_equal or Contract.approx_eq" op)
       | Some ([ "failwith" ] | [ "Stdlib"; "failwith" ]) when in_lib path ->
           report ctx path line "no-bare-failwith"
             "bare failwith in library code; raise a typed Robust.Error \
              (or Invalid_argument through a Contract combinator)"
       | Some [ "Array"; "make" ] when not (owns_matrix_storage path) -> (
           (* flag Array.make (r * c) — matrix-shaped allocation *)
           match args with
           | (_, n) :: _ -> (
               match n.pexp_desc with
               | Pexp_apply (mul, [ _; _ ]) when ident_name mul = Some [ "*" ] ->
                   report ctx path line "raw-matrix-alloc"
                     "Array.make with a product size allocates raw matrix \
                      storage; use Mat.create / Cmat.create / Vec.create"
               | _ -> ())
           | [] -> ())
       | _ -> ())
   | _ -> ());
  (match ident_name e with
   | Some [ "Obj"; "magic" ] ->
       report ctx path line "obj-magic" "Obj.magic defeats the type system"
   | Some
       ( [ "Unix"; "gettimeofday" ] | [ "Sys"; "time" ]
       | [ "Stdlib"; "Sys"; "time" ] )
     when not (in_lib_obs path) ->
       report ctx path line "raw-clock"
         "raw wall-clock access outside lib/obs; route timing through \
          Obs.Clock so it is span-instrumentable"
   | Some
       ( [ "Gc"; ("stat" | "quick_stat" | "counters" | "minor_words") ]
       | [ "Stdlib"; "Gc"; ("stat" | "quick_stat" | "counters" | "minor_words") ] )
     when not (in_lib_obs path) ->
       report ctx path line "raw-gc"
         "raw GC introspection outside lib/obs; route allocation telemetry \
          through Obs.Prof so it rides the span/bench path"
   | Some ([ "Domain"; "spawn" ] | [ "Stdlib"; "Domain"; "spawn" ])
     when not (in_lib_par path) ->
       report ctx path line "raw-domain-spawn"
         "Domain.spawn outside lib/par; use Par.tiles / Par.map_list \
          so pool sizing, determinism and budget latching \
          stay centralized"
   | Some name
     when (match List.rev name with
           | "quantile" :: "Clock" :: _ -> false
           | ("quantile" | "percentile") :: _ -> true
           | _ -> false)
          && not (in_lib_obs path) ->
       (* Obs.Clock.quantile is the blessed implementation: exact
          nearest rank over a sorted copy, so every quantile in the
          repo breaks ties and rounds ranks the same way. *)
       report ctx path line "raw-quantile"
         "ad-hoc quantile/percentile outside lib/obs; use \
          Obs.Clock.quantile so every quantile ranks the same way"
   | Some name when in_lib path && List.mem name stdout_printers ->
       report ctx path line "lib-printf"
         (Printf.sprintf "%s in library code; return strings or use Format \
                          with an explicit formatter" (String.concat "." name))
   | _ -> ())

(* ---------- unbudgeted-loop ---------- *)

(* Kernel files whose hot loops must cooperate with the compute budget
   (DESIGN.md §13): the shifted Kronecker back-substitution and every
   ODE integrator. *)
let budget_mandatory path =
  (in_lib_la path && basename path = "ksolve.ml")
  || match after_lib path with Some [ "ode"; _ ] -> true | _ -> false

(* [@vmor.unbudgeted "reason"] exempts one loop: the annotation is the
   documented claim that the loop is structurally bounded (so at most a
   bounded amount of work trails the nearest enclosing poll). *)
let unbudgeted_attr (attrs : attributes) =
  List.exists
    (fun (a : attribute) ->
      a.attr_name.txt = "vmor.unbudgeted" || a.attr_name.txt = "unbudgeted")
    attrs

(* Does the expression mention any [Budget] ident
   (Robust.Budget.check, Budget.tick_ode_step, ...)? *)
let mentions_budget (e : expression) =
  let found = ref false in
  iter_sub_expressions e (fun e' ->
      match e'.pexp_desc with
      | Pexp_ident { txt; _ } when List.mem "Budget" (Longident.flatten txt) ->
          found := true
      | _ -> ());
  !found

let check_unbudgeted_loops ctx path (str : structure) =
  let report_loop what line =
    report ctx path line "unbudgeted-loop"
      (Printf.sprintf
         "%s in a budget-mandatory kernel file never polls the compute \
          budget; call Robust.Budget.check / tick_* inside the loop, or \
          annotate [@vmor.unbudgeted \"reason\"] if it is structurally \
          bounded" what)
  in
  let check_rec_binding (vb : value_binding) =
    if
      (not (unbudgeted_attr vb.pvb_attributes))
      && not (mentions_budget vb.pvb_expr)
    then
      let name =
        match binding_name vb with Some n -> "'" ^ n ^ "'" | None -> "" in
      report_loop
        (Printf.sprintf "recursive function %s" name)
        (line_of vb.pvb_loc)
  in
  iter_expressions str (fun e ->
      match e.pexp_desc with
      | Pexp_while (cond, body)
        when (not (unbudgeted_attr e.pexp_attributes))
             && not (mentions_budget cond || mentions_budget body) ->
          report_loop "while loop" (line_of e.pexp_loc)
      | Pexp_let (Asttypes.Recursive, vbs, _) ->
          List.iter check_rec_binding vbs
      | _ -> ());
  List.iter
    (fun (item : structure_item) ->
      match item.pstr_desc with
      | Pstr_value (Asttypes.Recursive, vbs) -> List.iter check_rec_binding vbs
      | _ -> ())
    str

(* ---------- shared mutable state: inventory ---------- *)

(* One module-level mutable binding. [synced] means the binding carries
   a [@@vmor.sync "..."] discipline annotation: the binding itself is
   exempt from toplevel-mutable, but its writes must sit inside a
   Mutex.protect region. *)
type mstate = {
  m_name : string;
  m_kind : string;  (* "ref" | "array" | "hashtbl" | ... *)
  m_line : int;
  m_synced : bool;
  m_lazy : bool;
}

(* Mutable-state constructors, by head identifier. *)
let mutable_init_kind mutable_fields (e : expression) =
  match e.pexp_desc with
  | Pexp_lazy _ -> Some "lazy"
  | Pexp_record (fields, _)
    when List.exists
           (fun (({ txt; _ } : Longident.t Location.loc), _) ->
             match List.rev (Longident.flatten txt) with
             | f :: _ -> List.mem f mutable_fields
             | [] -> false)
           fields ->
      Some "mutable record"
  | Pexp_apply (fn, _) -> (
      match ident_name fn with
      | Some ([ "ref" ] | [ "Stdlib"; "ref" ]) -> Some "ref"
      | Some [ "Array"; ("make" | "create_float" | "init" | "make_matrix") ] ->
          Some "array"
      | Some [ "Hashtbl"; "create" ] -> Some "hashtbl"
      | Some [ "Buffer"; "create" ] -> Some "buffer"
      | Some [ "Bytes"; ("create" | "make") ] -> Some "bytes"
      | Some [ "Queue"; "create" ] -> Some "queue"
      | Some [ "Stack"; "create" ] -> Some "stack"
      | _ -> None)
  | _ -> None

(* Field names declared mutable anywhere in this file's type decls. *)
let collect_mutable_fields (str : structure) =
  let fields = ref [] in
  let rec item (i : structure_item) =
    match i.pstr_desc with
    | Pstr_type (_, decls) ->
        List.iter
          (fun (d : type_declaration) ->
            match d.ptype_kind with
            | Ptype_record labels ->
                List.iter
                  (fun (l : label_declaration) ->
                    if l.pld_mutable = Mutable then
                      fields := l.pld_name.txt :: !fields)
                  labels
            | _ -> ())
          decls
    | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure s; _ }; _ } ->
        List.iter item s
    | _ -> ()
  in
  List.iter item str;
  !fields

(* Every module-level mutable binding of a structure, descending into
   nested [module M = struct ... end] (their state is just as global). *)
let collect_mutables (str : structure) =
  let mutable_fields = collect_mutable_fields str in
  let acc = ref [] in
  let rec item (i : structure_item) =
    match i.pstr_desc with
    | Pstr_value (_, vbs) ->
        List.iter
          (fun (vb : value_binding) ->
            match binding_name vb with
            | Some name -> (
                match mutable_init_kind mutable_fields vb.pvb_expr with
                | Some kind ->
                    acc :=
                      {
                        m_name = name;
                        m_kind = kind;
                        m_line = line_of vb.pvb_loc;
                        m_synced = sync_attr vb;
                        m_lazy = kind = "lazy";
                      }
                      :: !acc
                | None -> ())
            | None -> ())
          vbs
    | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure s; _ }; _ } ->
        List.iter item s
    | _ -> ()
  in
  List.iter item str;
  List.rev !acc

(* ---------- shared mutable state: access walker ---------- *)

(* Walk an expression tracking two context bits:
     in_fun  — inside a function body (module-init straight-line code
               happens-before every domain spawn, so it is exempt);
     synced  — inside the thunk of [Mutex.protect mu (fun () -> ...)],
               the designated sync boundary.
   Reports every read/write/force of a name in [mutables] to
   [on_access]. *)
type access = Read | Write | Force

let mutating_heads =
  [
    ([ "Hashtbl" ],
     [ "replace"; "add"; "remove"; "reset"; "clear"; "filter_map_inplace" ]);
    ([ "Buffer" ],
     [ "add_string"; "add_char"; "add_substring"; "add_subbytes";
       "add_bytes"; "add_buffer"; "add_channel"; "clear"; "reset";
       "truncate" ]);
    ([ "Array" ], [ "set"; "unsafe_set"; "fill"; "blit" ]);
    ([ "Bytes" ], [ "set"; "unsafe_set"; "fill"; "blit" ]);
    ([ "Queue" ], [ "push"; "add"; "pop"; "take"; "clear"; "transfer" ]);
    ([ "Stack" ], [ "push"; "pop"; "clear" ]);
  ]

let base_ident (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } -> Some x
  | _ -> None

(* The write target of an application, if it is a mutation. *)
let write_target fn (args : (Asttypes.arg_label * expression) list) =
  match ident_name fn with
  | Some [ ":=" ] -> (
      match args with (_, lhs) :: _ -> base_ident lhs | [] -> None)
  | Some ([ "incr" ] | [ "decr" ] | [ "Stdlib"; "incr" ] | [ "Stdlib"; "decr" ])
    -> (
      match args with (_, a) :: _ -> base_ident a | [] -> None)
  | Some [ m; f ]
    when List.exists
           (fun (ms, fs) -> ms = [ m ] && List.mem f fs)
           mutating_heads -> (
      match args with (_, a) :: _ -> base_ident a | [] -> None)
  | _ -> None

let is_lazy_force fn =
  match ident_name fn with
  | Some [ "Lazy"; ("force" | "force_val") ] -> true
  | _ -> false

let is_mutex_protect fn =
  match ident_name fn with
  | Some ([ "Mutex"; "protect" ] | [ "Stdlib"; "Mutex"; "protect" ]) -> true
  | _ -> false

let walk_accesses ~mutables ~in_fun0 ~on_access (e0 : expression) =
  let find n = List.find_opt (fun m -> m.m_name = n) mutables in
  let in_fun = ref in_fun0 and synced = ref false in
  let open Ast_iterator in
  let it =
    { default_iterator with
      expr =
        (fun self e ->
          let line = line_of e.pexp_loc in
          let emit kind m = on_access kind m ~line ~synced:!synced ~in_fun:!in_fun in
          (* report accesses at this node *)
          (match e.pexp_desc with
           | Pexp_apply (fn, args) -> (
               (match write_target fn args with
                | Some n -> (
                    match find n with Some m -> emit Write m | None -> ())
                | None -> ());
               if is_lazy_force fn then
                 match args with
                 | (_, a) :: _ -> (
                     match base_ident a with
                     | Some n -> (
                         match find n with
                         | Some m when m.m_lazy -> emit Force m
                         | _ -> ())
                     | None -> ())
                 | [] -> ())
           | Pexp_setfield (lhs, _, _) -> (
               match base_ident lhs with
               | Some n -> (
                   match find n with Some m -> emit Write m | None -> ())
               | None -> ())
           | Pexp_ident { txt = Longident.Lident n; _ } -> (
               match find n with Some m -> emit Read m | None -> ())
           | _ -> ());
          (* descend, maintaining context *)
          match e.pexp_desc with
          | Pexp_apply (fn, args) when is_mutex_protect fn ->
              self.expr self fn;
              let last = List.length args - 1 in
              List.iteri
                (fun i (_, a) ->
                  if i = last then begin
                    let s = !synced in
                    synced := true;
                    self.expr self a;
                    synced := s
                  end
                  else self.expr self a)
                args
          | Pexp_fun (_, default, pat, body) ->
              Option.iter (self.expr self) default;
              self.pat self pat;
              let f = !in_fun in
              in_fun := true;
              self.expr self body;
              in_fun := f
          | Pexp_function cases ->
              let f = !in_fun in
              in_fun := true;
              List.iter (self.case self) cases;
              in_fun := f
          | _ -> default_iterator.expr self e)
    }
  in
  it.expr it e0

(* ---------- toplevel-mutable + unsync-global-write ---------- *)

let check_shared_state ctx path (str : structure) =
  let mutables = collect_mutables str in
  (* rule 1: the bindings themselves (unless annotated or exempt) *)
  List.iter
    (fun m ->
      if not m.m_synced then
        report ctx path m.m_line "toplevel-mutable"
          (Printf.sprintf
             "module-level mutable state: %s '%s'; domains will race on it \
              — make it local, Domain.DLS-backed, Atomic, or annotate \
              [@@vmor.sync \"lock discipline\"]" m.m_kind m.m_name))
    mutables;
  (* rule 2: unsynchronized writes from inside functions *)
  let seen = Hashtbl.create 8 in
  let on_access kind (m : mstate) ~line ~synced ~in_fun =
    match kind with
    | (Write | Force) when in_fun && not synced ->
        (* one report per (line, name): `x := !x + 1` is one write *)
        if not (Hashtbl.mem seen (line, m.m_name)) then begin
          Hashtbl.replace seen (line, m.m_name) ();
          let what =
            match kind with
            | Force ->
                Printf.sprintf
                  "forcing module-level lazy '%s' is a write (racy forces \
                   raise RacyLazy)" m.m_name
            | _ ->
                Printf.sprintf "unsynchronized write to module-level %s '%s'"
                  m.m_kind m.m_name
          in
          report ctx path line "unsync-global-write"
            (what
            ^ "; wrap in Mutex.protect, or make the state Domain.DLS-backed \
               or Atomic")
        end
    | _ -> ()
  in
  if mutables <> [] then
    let rec item (i : structure_item) =
      match i.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter
            (fun (vb : value_binding) ->
              walk_accesses ~mutables ~in_fun0:false ~on_access vb.pvb_expr)
            vbs
      | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure s; _ }; _ } ->
          List.iter item s
      | _ -> ()
    in
    List.iter item str

(* ---------- dim-guard ---------- *)

(* An "operand" argument type: a matrix/vector-like value whose shape
   can disagree with another operand's. *)
let is_operand_type (t : core_type) =
  match t.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, []) -> (
      match Longident.flatten txt with
      | [ "t" ]
      | [ ("Mat" | "Vec" | "Cmat" | "Cvec" | "Sptensor"); "t" ] -> true
      | _ -> false)
  | _ -> false

(* Count operand-typed parameters of a val declaration's arrow type. *)
let count_operands (t : core_type) =
  let rec go acc (t : core_type) =
    match t.ptyp_desc with
    | Ptyp_arrow (_, arg, rest) ->
        go (if is_operand_type arg then acc + 1 else acc) rest
    | _ -> acc
  in
  go 0 t

(* Exported functions with >= 2 operands, from the .mli. *)
let exported_multi_operand (intf : signature) =
  List.filter_map
    (fun (item : signature_item) ->
      match item.psig_desc with
      | Psig_value vd when count_operands vd.pval_type >= 2 ->
          Some vd.pval_name.txt
      | _ -> None)
    intf

(* Decompose [let f p1 p2 ... = body] into parameter names and body. *)
let rec fun_params (e : expression) acc =
  match e.pexp_desc with
  | Pexp_fun (_, _, pat, body) ->
      let name =
        match pat.ppat_desc with
        | Ppat_var { txt; _ } -> Some txt
        | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> Some txt
        | _ -> None
      in
      fun_params body (name :: acc)
  | Pexp_newtype (_, body) -> fun_params body acc
  | _ -> (List.rev acc, e)

(* Is [e] a syntactic function? *)
let is_function (e : expression) =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> true
  | _ -> false

(* Functions whose name marks them as a guard in their own right. *)
let is_guard_name name =
  match List.rev name with
  | last :: _ ->
      String.length last >= 6
      && (String.sub last 0 6 = "check_"
          || (String.length last >= 7 && String.sub last 0 7 = "require")
          || last = "invalid_arg")
  | [] -> false

let mentions_param (e : expression) p =
  let found = ref false in
  iter_sub_expressions e (fun e' ->
      match e'.pexp_desc with
      | Pexp_ident { txt = Longident.Lident x; _ } when x = p -> found := true
      | _ -> ());
  !found

(* Names whose application reads a dimension. *)
let is_dims_reader name =
  match List.rev name with
  | last :: _ ->
      List.mem last [ "length"; "rows"; "cols"; "dims"; "dim"; "n_in";
                      "n_out"; "arity"; "nnz" ]
  | [] -> false

(* Does [body] read the dimensions of >= 2 distinct parameters, or call
   a guard combinator? *)
let body_guards body params =
  let guard_call = ref false in
  let touched = Hashtbl.create 4 in
  let touch_args args =
    List.iter
      (fun (_, a) ->
        List.iter
          (fun p -> if mentions_param a p then Hashtbl.replace touched p ())
          params)
      args
  in
  iter_sub_expressions body (fun e ->
      match e.pexp_desc with
      | Pexp_apply (fn, args) -> (
          match ident_name fn with
          | Some name when is_guard_name name -> guard_call := true
          | Some name when is_dims_reader name -> touch_args args
          | _ -> ())
      | Pexp_field (base, { txt; _ }) -> (
          match Longident.flatten txt with
          | [ ("rows" | "cols") ] | [ _; ("rows" | "cols") ] ->
              List.iter
                (fun p ->
                  if mentions_param base p then Hashtbl.replace touched p ())
                params
          | _ -> ())
      | Pexp_match ({ pexp_desc = Pexp_ident { txt = Longident.Lident x; _ }; _ }, _)
        when List.mem x params ->
          (* dispatching on an operand's structure is shape inspection *)
          Hashtbl.replace touched x ()
      | _ -> ());
  !guard_call || Hashtbl.length touched >= 2

(* Local functions called (by unqualified name) anywhere in [body]. *)
let local_calls body =
  let calls = ref [] in
  iter_sub_expressions body (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt = Longident.Lident x; _ } -> calls := x :: !calls
      | _ -> ());
  !calls

(* Generic monotone propagation over a call graph: repeatedly fold each
   node's fact with its callees' until nothing changes.  dim-guard uses
   it for guard delegation; the domain-safety classifier reuses it for
   taint propagation. *)
let propagate_fixpoint ~nodes ~callees ~get ~join ~set =
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun n ->
        let before = get n in
        let after =
          List.fold_left (fun acc c -> join acc (get c)) before (callees n)
        in
        if after <> before then begin
          set n after;
          changed := true
        end)
      nodes
  done

let check_dim_guards ctx ml_path (str : structure) (intf : signature) =
  let wanted = exported_multi_operand intf in
  if wanted <> [] then begin
    (* toplevel bindings: name -> (line, params, body) *)
    let bindings = Hashtbl.create 16 in
    List.iter
      (fun (item : structure_item) ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun (vb : value_binding) ->
                match binding_name vb with
                | Some txt ->
                    let params, body = fun_params vb.pvb_expr [] in
                    Hashtbl.replace bindings txt
                      (line_of vb.pvb_loc, params, body)
                | None -> ())
              vbs
        | _ -> ())
      str;
    (* fixpoint: a function is guarded if its own body guards, or it
       calls a guarded sibling (delegation like
       [let add a b = map2 (+.) a b]). *)
    let guarded = Hashtbl.create 16 in
    Hashtbl.iter
      (fun name (_, params, body) ->
        let params = List.filter_map Fun.id params in
        if body_guards body params then Hashtbl.replace guarded name ())
      bindings;
    let names = Hashtbl.fold (fun k _ acc -> k :: acc) bindings [] in
    propagate_fixpoint ~nodes:names
      ~callees:(fun n ->
        match Hashtbl.find_opt bindings n with
        | Some (_, _, body) ->
            List.filter (Hashtbl.mem bindings) (local_calls body)
        | None -> [])
      ~get:(fun n -> Hashtbl.mem guarded n)
      ~join:( || )
      ~set:(fun n b -> if b then Hashtbl.replace guarded n ());
    List.iter
      (fun name ->
        match Hashtbl.find_opt bindings name with
        | Some (line, _, _) when not (Hashtbl.mem guarded name) ->
            report ctx ml_path line "dim-guard"
              (Printf.sprintf
                 "%s consumes two matrix/vector operands but never checks \
                  their dimensions (call a Contract combinator or compare \
                  both shapes)" name)
        | _ -> ())
      wanted
  end

(* ---------- per-file driver (AST rules) ---------- *)

(* Lint one parsed implementation (all per-file rules). [intf] is the
   sibling interface when one exists. *)
let lint_impl ctx path (str : structure) (intf : signature option) =
  iter_expressions str (check_expression ctx path);
  if budget_mandatory path then check_unbudgeted_loops ctx path str;
  if in_lib path then begin
    check_shared_state ctx path str;
    match intf with
    | None -> ()
    | Some intf -> if in_lib_la path then check_dim_guards ctx path str intf
  end

let lint_file ctx path =
  if Filename.check_suffix path ".ml" then begin
    match parse_file path `Impl with
    | exception _ -> report ctx path 1 "parse-error" "file does not parse"
    | `Intf _ -> assert false
    | `Impl str ->
        let intf =
          let mli = Filename.remove_extension path ^ ".mli" in
          if not (Sys.file_exists mli) then begin
            if in_lib path then
              report ctx path 1 "mli-pair"
                "library module has no interface file (.mli)";
            None
          end
          else
            match parse_file mli `Intf with
            | exception _ -> None (* reported when the .mli itself is linted *)
            | `Impl _ -> assert false
            | `Intf intf -> Some intf
        in
        lint_impl ctx path str intf
  end
  else if Filename.check_suffix path ".mli" then begin
    match parse_file path `Intf with
    | exception _ -> report ctx path 1 "parse-error" "file does not parse"
    | _ -> ()
  end

(* Inside a dune build tree the compiler may replace an artifact
   (e.g. a .cma) between [readdir] and the stat of that entry; a child
   that vanished that way is skipped rather than aborting the walk. *)
let rec walk f path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.iter (fun entry ->
           let child = Filename.concat path entry in
           if entry <> "_build" && entry <> ".git" then
             try walk f child
             with Sys_error _ when not (Sys.file_exists child) -> ())
  else f path

(* ---------- allowlist ---------- *)

type allow_entry = { a_rule : string; a_file : string; a_line : int }

let load_allowlist path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let entries = ref [] in
        let lineno = ref 0 in
        (try
           while true do
             let raw = input_line ic in
             incr lineno;
             let line = String.trim raw in
             if line <> "" && line.[0] <> '#' then
               match String.index_opt line ' ' with
               | Some i ->
                   let rule = String.sub line 0 i in
                   let file =
                     String.trim (String.sub line i (String.length line - i))
                   in
                   if not (List.mem rule rule_ids) then begin
                     Printf.eprintf "vmor_lint: unknown rule %S in %s\n" rule
                       path;
                     exit 2
                   end;
                   if rule = "parse-error" || rule = "stale-allowlist" then begin
                     Printf.eprintf
                       "vmor_lint: rule %S cannot be allowlisted (%s)\n" rule
                       path;
                     exit 2
                   end;
                   entries :=
                     { a_rule = rule; a_file = file; a_line = !lineno }
                     :: !entries
               | None ->
                   Printf.eprintf "vmor_lint: malformed allowlist line %S\n"
                     line;
                   exit 2
           done
         with End_of_file -> ());
        List.rev !entries)
  end

(* Filter violations through the allowlist; flag entries for the rules
   this run could have produced ([active]) that matched nothing. *)
let apply_allowlist ctx ~allowlist_path ~active entries =
  let used = Hashtbl.create 8 in
  let surviving =
    List.filter
      (fun v ->
        v.rule = "parse-error"
        ||
        match
          List.find_opt
            (fun a -> a.a_rule = v.rule && a.a_file = v.file)
            entries
        with
        | Some a ->
            Hashtbl.replace used (a.a_rule, a.a_file) ();
            false
        | None -> true)
      ctx.out
  in
  ctx.out <- surviving;
  List.iter
    (fun a ->
      if List.mem a.a_rule active && not (Hashtbl.mem used (a.a_rule, a.a_file))
      then
        report ctx allowlist_path a.a_line "stale-allowlist"
          (Printf.sprintf
             "allowlist entry '%s %s' matches no finding; delete it or \
              re-justify it" a.a_rule a.a_file))
    entries

let sort_violations vs =
  List.sort
    (fun a b ->
      match compare a.file b.file with
      | 0 -> (
          match compare a.line b.line with 0 -> compare a.rule b.rule | c -> c)
      | c -> c)
    vs

(* ---------- domain-safety classifier ---------- *)

type cls = Safe | Reads | Writes

let cls_rank = function Safe -> 0 | Reads -> 1 | Writes -> 2
let cls_max a b = if cls_rank a >= cls_rank b then a else b

let cls_name = function
  | Safe -> "domain_safe"
  | Reads -> "reads_shared"
  | Writes -> "writes_shared"

(* One analyzed module (one .ml file). *)
type dmodule = {
  d_file : string;
  d_lib : string;  (* directory under lib/, e.g. "obs"; "" if direct *)
  d_mod : string;  (* OCaml module name, e.g. "Metrics" *)
  d_mutables : mstate list;
  d_bindings : (string, int * expression * bool) Hashtbl.t;
      (* name -> line, rhs, is_function; nested-module bindings are
         keyed "Sub.name" *)
  d_order : string list;  (* binding names in source order *)
  d_exports : (string * int) list option;
      (* .mli vals (name, line); None = no interface, export all *)
  d_refs : (string, Longident.t list) Hashtbl.t;
      (* name -> every ident path mentioned in its rhs *)
  d_base : (string, cls * string) Hashtbl.t;
      (* name -> own access class + provenance (state name) *)
}

let module_name_of_file file =
  String.capitalize_ascii (Filename.remove_extension (basename file))

let lib_of_file file =
  match after_lib file with
  | Some (dir :: _ :: _) -> dir  (* lib/<dir>/<file> *)
  | _ -> ""

(* Base facts + reference collection for one parsed implementation. *)
let analyze_module ~file (str : structure) (intf : signature option) =
  let mutables = collect_mutables str in
  let bindings = Hashtbl.create 16 in
  let order = ref [] in
  let refs = Hashtbl.create 16 in
  let base = Hashtbl.create 16 in
  let rec collect prefix (i : structure_item) =
    match i.pstr_desc with
    | Pstr_value (_, vbs) ->
        List.iter
          (fun (vb : value_binding) ->
            match binding_name vb with
            | Some n ->
                let name = if prefix = "" then n else prefix ^ "." ^ n in
                Hashtbl.replace bindings name
                  (line_of vb.pvb_loc, vb.pvb_expr, is_function vb.pvb_expr);
                order := name :: !order
            | None -> ())
          vbs
    | Pstr_module
        { pmb_name = { txt = Some sub; _ };
          pmb_expr = { pmod_desc = Pmod_structure s; _ }; _ } ->
        List.iter (collect (if prefix = "" then sub else prefix ^ "." ^ sub)) s
    | _ -> ()
  in
  List.iter (collect "") str;
  Hashtbl.iter
    (fun name (_, rhs, is_fun) ->
      (* base access class: what does calling this value touch?  A
         non-function's rhs runs once at module init (happens-before
         every spawn), so only code under a lambda counts. *)
      let acc = ref (Safe, "") in
      let on_access kind (m : mstate) ~line:_ ~synced ~in_fun =
        if (not synced) && (in_fun || is_fun) then
          let k = match kind with Read -> Reads | Write | Force -> Writes in
          if cls_rank k > cls_rank (fst !acc) then acc := (k, m.m_name)
      in
      let body = if is_fun then snd (fun_params rhs []) else rhs in
      let in_fun0 = is_fun in
      walk_accesses ~mutables ~in_fun0 ~on_access body;
      Hashtbl.replace base name !acc;
      (* every ident path mentioned: candidate callees *)
      let paths = ref [] in
      iter_sub_expressions rhs (fun e ->
          match e.pexp_desc with
          | Pexp_ident { txt; _ } -> paths := txt :: !paths
          | _ -> ());
      Hashtbl.replace refs name !paths)
    bindings;
  let exports =
    Option.map
      (fun intf ->
        List.filter_map
          (fun (item : signature_item) ->
            match item.psig_desc with
            | Psig_value vd ->
                Some (vd.pval_name.txt, line_of item.psig_loc)
            | _ -> None)
          intf)
      intf
  in
  {
    d_file = file;
    d_lib = lib_of_file file;
    d_mod = module_name_of_file file;
    d_mutables = mutables;
    d_bindings = bindings;
    d_order = List.rev !order;
    d_exports = exports;
    d_refs = refs;
    d_base = base;
  }

(* Resolve an ident path mentioned in [from_mod] to (module, binding).
   Handles:  f         (same file)
             Mod.f / Mod.Sub.f           (same lib, or globally unique)
             Lib.Mod.f / Lib.Mod.Sub.f   (qualified through the wrapper) *)
let resolve_ref modules (from_mod : dmodule) (path : Longident.t) =
  let flat = Longident.flatten path in
  let find_mod ~libname name =
    let candidates =
      List.filter
        (fun m ->
          m.d_mod = name
          && match libname with Some l -> m.d_lib = l | None -> true)
        modules
    in
    match candidates with
    | [ m ] -> Some m
    | _ :: _ :: _ when libname = None -> (
        (* ambiguous bare module name: prefer the same lib *)
        match List.find_opt (fun m -> m.d_lib = from_mod.d_lib) candidates with
        | Some m -> Some m
        | None -> None)
    | _ -> None
  in
  let lookup m fn_path =
    let fn = String.concat "." fn_path in
    if Hashtbl.mem m.d_bindings fn then Some (m, fn) else None
  in
  let is_modname s = s <> "" && s.[0] >= 'A' && s.[0] <= 'Z' in
  let wrapper_of lib = String.capitalize_ascii lib in
  match flat with
  | [ f ] when not (is_modname f) ->
      lookup from_mod [ f ]
  | m0 :: rest when is_modname m0 && rest <> [] -> (
      (* try m0 as a module name (same lib first, then unique) *)
      match find_mod ~libname:(Some from_mod.d_lib) m0 with
      | Some m -> lookup m rest
      | None -> (
          match find_mod ~libname:None m0 with
          | Some m -> lookup m rest
          | None -> (
              (* try m0 as a library wrapper: Lib.Mod.f *)
              match rest with
              | m1 :: rest2 when is_modname m1 && rest2 <> [] -> (
                  match
                    List.find_opt
                      (fun m -> wrapper_of m.d_lib = m0 && m.d_mod = m1)
                      modules
                  with
                  | Some m -> lookup m rest2
                  | None -> None)
              | _ -> None)))
  | _ -> None

(* Classify every binding of every module by taint fixpoint over the
   cross-module call graph. *)
let classify_modules (modules : dmodule list) =
  (* node = (module, binding name) *)
  let nodes =
    List.concat_map (fun m -> List.map (fun n -> (m, n)) m.d_order) modules
  in
  let tbl : (string * string, cls * string) Hashtbl.t =
    Hashtbl.create 256
  in
  let key (m, n) = (m.d_file, n) in
  List.iter
    (fun (m, n) ->
      let c = try Hashtbl.find m.d_base n with Not_found -> (Safe, "") in
      Hashtbl.replace tbl (key (m, n)) c)
    nodes;
  let callees_tbl = Hashtbl.create 256 in
  List.iter
    (fun (m, n) ->
      let paths = try Hashtbl.find m.d_refs n with Not_found -> [] in
      let cs =
        List.filter_map (resolve_ref modules m) paths
        |> List.filter (fun (m', n') -> not (m' == m && n' = n))
      in
      Hashtbl.replace callees_tbl (key (m, n)) cs)
    nodes;
  let get n = Hashtbl.find tbl (key n) in
  propagate_fixpoint ~nodes
    ~callees:(fun n -> try Hashtbl.find callees_tbl (key n) with Not_found -> [])
    ~get
    ~join:(fun (c1, w1) (c2, w2) ->
      if cls_rank c2 > cls_rank c1 then (c2, w2) else (c1, w1))
    ~set:(fun n v -> Hashtbl.replace tbl (key n) v);
  tbl

(* Provenance string shown in the inventory: the shared state (or the
   callee chain head) responsible for a non-safe classification. *)
let classify ~files =
  let modules =
    List.filter_map
      (fun (file, str, intf) ->
        if Filename.check_suffix file ".ml" && in_lib file then
          Some (analyze_module ~file str intf)
        else None)
      files
  in
  let tbl = classify_modules modules in
  (modules, tbl)

type inventory_line = {
  i_file : string;
  i_val : string;
  i_line : int;  (* .mli line of the exported val (or .ml binding) *)
  i_cls : cls;
  i_via : string;  (* shared-state provenance, "" when safe *)
}

let inventory (modules, tbl) =
  List.concat_map
    (fun m ->
      let exported =
        match m.d_exports with
        | Some vals -> vals
        | None ->
            List.filter_map
              (fun n ->
                match Hashtbl.find_opt m.d_bindings n with
                | Some (line, _, _) -> Some (n, line)
                | None -> None)
              m.d_order
      in
      List.filter_map
        (fun (v, line) ->
          let line =
            match Hashtbl.find_opt m.d_bindings v with
            | Some (l, _, _) -> l
            | None -> line
          in
          match Hashtbl.find_opt tbl (m.d_file, v) with
          | Some (c, via) ->
              Some { i_file = m.d_file; i_val = v; i_line = line; i_cls = c;
                     i_via = via }
          | None ->
              (* exported but not a toplevel let (re-export, include):
                 out of reach of the first-order analysis *)
              Some { i_file = m.d_file; i_val = v; i_line = line; i_cls = Safe;
                     i_via = "" })
        exported)
    modules
  |> List.sort (fun a b ->
         match compare a.i_file b.i_file with
         | 0 -> compare a.i_val b.i_val
         | c -> c)

let render_inventory lines =
  let b = Buffer.create 4096 in
  Buffer.add_string b "# vmor_lint --domain-safety inventory\n";
  Buffer.add_string b
    "# <file> <exported val> <class>[ via <shared state>]\n";
  let counts = [| 0; 0; 0 |] in
  List.iter
    (fun l ->
      counts.(cls_rank l.i_cls) <- counts.(cls_rank l.i_cls) + 1;
      Buffer.add_string b
        (Printf.sprintf "%s %s %s%s\n" l.i_file l.i_val (cls_name l.i_cls)
           (if l.i_via = "" then "" else " via " ^ l.i_via)))
    lines;
  Buffer.add_string b
    (Printf.sprintf "# summary: %d domain_safe, %d reads_shared, %d writes_shared\n"
       counts.(0) counts.(1) counts.(2));
  Buffer.contents b

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let render_inventory_json ~roots lines =
  let b = Buffer.create 4096 in
  let counts = [| 0; 0; 0 |] in
  List.iter (fun l -> counts.(cls_rank l.i_cls) <- counts.(cls_rank l.i_cls) + 1)
    lines;
  Buffer.add_string b "{\"schema\":\"vmor.domain_safety/1\",\"roots\":[";
  Buffer.add_string b
    (String.concat "," (List.map (fun r -> "\"" ^ json_escape r ^ "\"") roots));
  Buffer.add_string b
    (Printf.sprintf
       "],\"summary\":{\"domain_safe\":%d,\"reads_shared\":%d,\"writes_shared\":%d},\"values\":["
       counts.(0) counts.(1) counts.(2));
  let first = ref true in
  List.iter
    (fun l ->
      if not !first then Buffer.add_char b ',';
      first := false;
      Buffer.add_string b
        (Printf.sprintf "{\"file\":\"%s\",\"val\":\"%s\",\"class\":\"%s\"%s}"
           (json_escape l.i_file) (json_escape l.i_val) (cls_name l.i_cls)
           (if l.i_via = "" then ""
            else Printf.sprintf ",\"via\":\"%s\"" (json_escape l.i_via))))
    lines;
  Buffer.add_string b "]}\n";
  Buffer.contents b

(* ---------- entry points ---------- *)

(* Default lint mode over filesystem roots. *)
let run_lint ~allowlist_path ~roots =
  let ctx = { out = [] } in
  List.iter (walk (lint_file ctx)) roots;
  let entries =
    if allowlist_path = "" then [] else load_allowlist allowlist_path
  in
  let active =
    List.filter (fun r -> r <> "shared-write" && r <> "stale-allowlist"
                          && r <> "parse-error")
      rule_ids
  in
  apply_allowlist ctx ~allowlist_path ~active entries;
  sort_violations ctx.out

(* Domain-safety mode over filesystem roots: returns the inventory and
   the shared-write violations surviving the allowlist. *)
let run_domain_safety ~allowlist_path ~roots =
  let files = ref [] in
  let collect path =
    if Filename.check_suffix path ".ml" && in_lib path then begin
      match parse_file path `Impl with
      | exception _ -> ()
      | `Intf _ -> ()
      | `Impl str ->
          let mli = Filename.remove_extension path ^ ".mli" in
          let intf =
            if Sys.file_exists mli then
              match parse_file mli `Intf with
              | exception _ -> None
              | `Impl _ -> None
              | `Intf i -> Some i
            else None
          in
          files := (path, str, intf) :: !files
    end
  in
  List.iter (walk collect) roots;
  let result = classify ~files:(List.rev !files) in
  let lines = inventory result in
  let ctx = { out = [] } in
  List.iter
    (fun l ->
      if l.i_cls = Writes then
        report ctx l.i_file l.i_line "shared-write"
          (Printf.sprintf
             "exported value '%s' writes shared mutable state (via %s) \
              without synchronization; fix it or allowlist \
              'shared-write %s' with a justification" l.i_val l.i_via
             l.i_file))
    lines;
  let entries =
    if allowlist_path = "" then [] else load_allowlist allowlist_path
  in
  apply_allowlist ctx ~allowlist_path ~active:[ "shared-write" ] entries;
  (lines, sort_violations ctx.out)

(* ---------- in-memory variants (test suite) ---------- *)

(* Lint a single in-memory implementation; [path] drives the path
   predicates (use "lib/x/m.ml" to arm the library rules).  The
   mli-pair rule is skipped (no filesystem sibling to check). *)
let lint_source ~path source =
  let ctx = { out = [] } in
  (match parse_string path `Impl source with
  | exception _ -> report ctx path 1 "parse-error" "file does not parse"
  | `Intf _ -> ()
  | `Impl str -> lint_impl ctx path str None);
  sort_violations ctx.out

(* Classify in-memory modules: [(path, impl_source, intf_source option)].
   Returns (file, exported val, class name, via) tuples, sorted. *)
let classify_sources sources =
  let files =
    List.map
      (fun (path, impl, intf) ->
        match parse_string path `Impl impl with
        | `Impl str ->
            let i =
              Option.map
                (fun s ->
                  match parse_string (path ^ "i") `Intf s with
                  | `Intf i -> i
                  | `Impl _ -> assert false)
                intf
            in
            (path, str, i)
        | `Intf _ -> assert false)
      sources
  in
  inventory (classify ~files)
  |> List.map (fun l -> (l.i_file, l.i_val, cls_name l.i_cls, l.i_via))

let format_violation v =
  Printf.sprintf "%s:%d: %s  %s" v.file v.line v.rule v.msg
