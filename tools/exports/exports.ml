(* Unused-export and unused-knob gate for lib/.

   Usage: exports.exe ALLOW DIR...

   Reads the typed trees dune leaves in the build directory: every
   [val] declared in a [lib/**/*.cmti] is an export, and every
   reference from another compilation unit in a [.cmt] under one of the
   DIRs is a use. A use is matched to its declaration by the value's
   uid, which is the same whether the caller wrote [Core.Http.Status.ok],
   [Nk_http.Status.ok] or [Status.ok], so no path has to be normalised.
   A module passed whole (functor argument, [include], first-class
   module, module constraint) uses every value its target signature
   takes.

   It also counts knobs. Each optional parameter of an exported [val]
   is one, supplied when an application of that [val] passes it
   ([~label:v] or [?label:o]); applications inside the declaring unit
   are matched by name, since they carry the implementation's uids.
   A parameter is always passed when shipped code applies its [val]
   and every such application passes it as [~label:v]: forwarding
   an option ([?label:o]), leaving it out, or using the [val] without
   applying it (as a closure or through a module) each count as
   omitting it, so its default is reachable.
   Each field of [Nk_node.Config.t] is one, and so is each field of a
   lib/ record type a [Config.t] field holds, directly or under
   [option] ([Nk_resource.Breaker.config]). A field is set when a
   record expression overrides it ([{ c with f = ... }] or a fresh
   record); the fresh records inside the unit that declares the type
   ([Config.default], [Breaker.default]) do not count.

   Uses under [test/] do not count as shipped. An export or knob with
   no shipped use, and a parameter every shipped application passes,
   must be listed in ALLOW, one per line: the value's
   path ([Module.path.value]), a parameter ([Module.path.value ?label])
   or a field ([Nk_node.Config.field], [Nk_resource.Breaker.window]),
   then a reason. The gate fails on any other, and on an ALLOW entry
   that now has a shipped use (for a parameter: that some shipped
   application also omits), has no use at all, gives no reason, or is
   no longer declared.

   The executables' main modules get a [.cmt] only from [dune build
   @check], so run it on a tree built that way. *)

open Typedtree

type decl = { name : string; unit : string; loc : Location.t }

(* uid -> declaration, filled from the lib/ interfaces *)
let decls : decl Shape.Uid.Tbl.t = Shape.Uid.Tbl.create 1024

(* The declaring unit's own calls, by path: "Nk_http.Status.ok" -> uid *)
let decl_by_name : (string, Shape.Uid.t) Hashtbl.t = Hashtbl.create 1024

(* uid -> used from shipped code / from tests *)
let shipped : unit Shape.Uid.Tbl.t = Shape.Uid.Tbl.create 1024
let tested : unit Shape.Uid.Tbl.t = Shape.Uid.Tbl.create 1024

(* Knobs, by name ("Nk_node.Cluster.create ?seed", "Nk_node.Config.seed"),
   with the uid that owns them: the [val]'s for a parameter, the
   label's for a field (mapped to the field's knob and declaring unit). *)
let knobs : (string, decl) Hashtbl.t = Hashtbl.create 256
let params : (Shape.Uid.t * string, string) Hashtbl.t = Hashtbl.create 256
let fields : (string * string) Shape.Uid.Tbl.t = Shape.Uid.Tbl.create 64
let shipped_knobs : (string, unit) Hashtbl.t = Hashtbl.create 256
let tested_knobs : (string, unit) Hashtbl.t = Hashtbl.create 256

(* uid -> the [val]'s optional labels; the parameters some shipped code
   passes as [~label:v], and those some shipped code omits, by name *)
let labels : string list Shape.Uid.Tbl.t = Shape.Uid.Tbl.create 256
let passed : (string, unit) Hashtbl.t = Hashtbl.create 256
let omitted : (string, unit) Hashtbl.t = Hashtbl.create 256

(* Every record type in a lib/ interface, by path: "Nk_node.Config.t" ->
   (unit, module path, labels) *)
let records : (string, string * string * Types.label_declaration list) Hashtbl.t =
  Hashtbl.create 64

let config_unit = "Nk_node__Config"
let config_type = "t"

let rec walk dir f =
  Array.iter
    (fun entry ->
      let path = Filename.concat dir entry in
      if Sys.is_directory path then walk path f else f path)
    (try Sys.readdir dir with Sys_error _ -> [||])

(* dune's [Nk_http__Status] is [Nk_http.Status] to its users. *)
let unit_path modname =
  let b = Buffer.create (String.length modname) in
  let i = ref 0 in
  while !i < String.length modname do
    if modname.[!i] = '_' && !i + 1 < String.length modname && modname.[!i + 1] = '_' then begin
      Buffer.add_char b '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char b modname.[!i];
      incr i
    end
  done;
  Buffer.contents b

let rec optional_labels ty =
  match Types.get_desc ty with
  | Types.Tarrow (Optional l, _, rest, _) -> l :: optional_labels rest
  | Tarrow (_, _, rest, _) -> optional_labels rest
  | _ -> []

let add_knob name unit loc = Hashtbl.replace knobs name { name; unit; loc }

let rec declare unit prefix items =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
          let d = { name = prefix ^ "." ^ vd.val_name.txt; unit; loc = vd.val_loc } in
          let uid = vd.val_val.val_uid in
          Shape.Uid.Tbl.replace decls uid d;
          Hashtbl.replace decl_by_name d.name uid;
          let ls = optional_labels vd.val_val.val_type in
          if ls <> [] then Shape.Uid.Tbl.replace labels uid ls;
          List.iter
            (fun l ->
              let name = Printf.sprintf "%s ?%s" d.name l in
              Hashtbl.replace params (uid, l) name;
              add_knob name unit d.loc)
            ls
      | Tsig_type (_, tds) ->
          List.iter
            (fun td ->
              match td.typ_type.type_kind with
              | Type_record (lds, _) ->
                  Hashtbl.replace records (prefix ^ "." ^ td.typ_name.txt) (unit, prefix, lds)
              | _ -> ())
            tds
      | Tsig_module md -> declare_module unit prefix md
      | Tsig_recmodule mds -> List.iter (declare_module unit prefix) mds
      | _ -> ())
    items

and declare_module unit prefix md =
  match (md.md_name.txt, md.md_type.mty_desc) with
  | Some name, Tmty_signature sg -> declare unit (prefix ^ "." ^ name) sg.sig_items
  | _ -> ()

(* The record type a field holds directly or under [option], by path. *)
let rec held ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [ arg ], _) when Path.same p Predef.path_option -> held arg
  | Tconstr (p, [], _) -> Hashtbl.find_opt records (unit_path (Path.name p))
  | _ -> None

(* Config.t's fields and those of the records they hold are the field
   knobs. *)
let declare_fields () =
  let add (unit, prefix, lds) =
    List.iter
      (fun (ld : Types.label_declaration) ->
        let name = prefix ^ "." ^ Ident.name ld.ld_id in
        Shape.Uid.Tbl.replace fields ld.ld_uid (name, unit);
        add_knob name unit ld.ld_loc)
      lds
  in
  match Hashtbl.find_opt records (unit_path config_unit ^ "." ^ config_type) with
  | Some ((_, _, lds) as config) ->
      add config;
      List.iter (fun (ld : Types.label_declaration) -> Option.iter add (held ld.ld_type)) lds
  | None -> ()

(* A unit's own references carry its implementation's uids, which may
   coincide with its interface's, so only other units' count. *)
let use table unit (vd : Types.value_description) =
  match Shape.Uid.Tbl.find_opt decls vd.val_uid with
  | Some d when d.unit <> unit -> Shape.Uid.Tbl.replace table vd.val_uid ()
  | _ -> ()

(* The declaration an applied identifier resolves to: by uid from
   another unit, by path from the declaring unit's own definitions. *)
let callee unit path (vd : Types.value_description) =
  match Shape.Uid.Tbl.find_opt decls vd.val_uid with
  | Some d when d.unit <> unit -> Some vd.val_uid
  | _ -> (
      match vd.val_uid with
      | Shape.Uid.Item { comp_unit; _ } when comp_unit = unit ->
          Hashtbl.find_opt decl_by_name (unit_path unit ^ "." ^ Path.name path)
      | _ -> None)

(* An optional argument the caller left out reaches the typed tree as a
   ghost-located [None]; that is no supply. *)
let supplied = function
  | Some { exp_desc = Texp_construct (_, { cstr_name = "None"; _ }, []); exp_loc; _ } ->
      not exp_loc.loc_ghost
  | Some _ -> true
  | None -> false

(* [~label:v] reaches an optional parameter wrapped in a [Some] whose
   constructor has no source location; [?label:o] passes [o] itself. *)
let passed_explicitly = function
  | Some { exp_desc = Texp_construct ({ loc; _ }, { cstr_name = "Some"; _ }, [ _ ]); _ } ->
      loc.loc_ghost
  | _ -> false

(* The components a module value carries at run time, in the order a
   [Tcoerce_structure] numbers them. *)
let is_runtime_component = function
  | Types.Sig_value (_, { val_kind = Val_prim _; _ }, _)
  | Sig_type _ | Sig_modtype _ | Sig_class_type _
  | Sig_module (_, Mp_absent, _, _, _) ->
      false
  | Sig_value _ | Sig_typext _ | Sig_class _ | Sig_module (_, Mp_present, _, _, _) -> true

(* Every value a signature hands over through coercion [cc]. *)
let rec use_signature use_value (sg : Types.signature) cc =
  let mark = function Types.Sig_value (_, vd, _) -> use_value vd | _ -> () in
  let rec all (sg : Types.signature) =
    List.iter
      (function
        | Types.Sig_module (_, _, md, _, _) -> (
            match md.md_type with Types.Mty_signature sub -> all sub | _ -> ())
        | item -> mark item)
      sg
  in
  match cc with
  | Tcoerce_structure (picks, _) ->
      let runtime = Array.of_list (List.filter is_runtime_component sg) in
      List.iter
        (fun (pos, sub) ->
          if pos >= 0 && pos < Array.length runtime then
            match runtime.(pos) with
            | Types.Sig_module (_, _, { md_type = Types.Mty_signature inner; _ }, _, _) ->
                use_signature use_value inner sub
            | item -> mark item)
        picks
  | _ -> all sg

(* A module named whole, coerced by [cc]. A named module usually
   reaches the coercion as an alias, wrapped in a constraint whose type
   is the aliased module's signature. *)
let rec use_module mark (me : module_expr) cc =
  match (me.mod_desc, me.mod_type) with
  | ( (Tmod_ident _ | Tmod_constraint ({ mod_desc = Tmod_ident _; _ }, _, _, Tcoerce_alias _)),
      Types.Mty_signature sg ) ->
      use_signature mark sg cc
  | Tmod_constraint (inner, _, _, Tcoerce_none), _ -> use_module mark inner cc
  | Tmod_constraint (inner, _, _, cc'), _ -> use_module mark inner cc'
  | _ -> ()

let uses ~test unit (str : structure) =
  let use_value = use (if test then tested else shipped) unit in
  let knob name = Hashtbl.replace (if test then tested_knobs else shipped_knobs) name () in
  let labels_of uid = Option.value ~default:[] (Shape.Uid.Tbl.find_opt labels uid) in
  (* Whether shipped code passes or omits parameter [l] of [uid]. *)
  let note table uid l =
    if not test then
      Option.iter (fun name -> Hashtbl.replace table name ()) (Hashtbl.find_opt params (uid, l))
  in
  (* A use that applies nothing reaches every default of the [val]; a
     module use hands its values over unapplied. *)
  let unapplied uid = List.iter (note omitted uid) (labels_of uid) in
  let mark (vd : Types.value_description) =
    use_value vd;
    if Shape.Uid.Tbl.mem decls vd.val_uid then unapplied vd.val_uid
  in
  let apply uid args =
    List.iter
      (fun l ->
        let arg = Option.join (List.assoc_opt (Asttypes.Optional l) args) in
        if supplied arg then Option.iter knob (Hashtbl.find_opt params (uid, l));
        note (if passed_explicitly arg then passed else omitted) uid l)
      (labels_of uid)
  in
  let open Tast_iterator in
  let expr sub (e : expression) =
    match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (path, _, vd); _ }, args) ->
        (* The head is a use but not an unapplied one, so only the
           arguments are visited. *)
        use_value vd;
        Option.iter (fun uid -> apply uid args) (callee unit path vd);
        List.iter (fun (_, arg) -> Option.iter (sub.expr sub) arg) args
    | Texp_ident (path, _, vd) ->
        use_value vd;
        Option.iter unapplied (callee unit path vd)
    | Texp_pack me ->
        use_module mark me Tcoerce_none;
        default_iterator.expr sub e
    | Texp_record { fields = fs; extended_expression; _ } ->
        Array.iter
          (fun ((lbl : Types.label_description), def) ->
            match (def, Shape.Uid.Tbl.find_opt fields lbl.lbl_uid) with
            | Overridden _, Some (name, owner)
              when not (owner = unit && extended_expression = None) ->
                knob name
            | _ -> ())
          fs;
        default_iterator.expr sub e
    | _ -> default_iterator.expr sub e
  in
  let module_expr sub (me : module_expr) =
    (match me.mod_desc with
    | Tmod_apply (_, arg, cc) -> use_module mark arg cc
    | Tmod_constraint (inner, _, _, cc) -> use_module mark inner cc
    | _ -> ());
    default_iterator.module_expr sub me
  in
  let structure_item sub (item : structure_item) =
    (match item.str_desc with
    | Tstr_include incl -> use_module mark incl.incl_mod Tcoerce_none
    | _ -> ());
    default_iterator.structure_item sub item
  in
  let it = { default_iterator with expr; module_expr; structure_item } in
  it.structure it str

(* [name  reason] per line; a parameter's name is two words. *)
let read_allow file =
  let split l =
    match String.index_opt l ' ' with
    | Some i -> (String.sub l 0 i, String.trim (String.sub l i (String.length l - i)))
    | None -> (l, "")
  in
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.trim line with
         | "" -> None
         | l when l.[0] = '#' -> None
         | l ->
             let name, rest = split l in
             if String.length rest > 0 && rest.[0] = '?' then
               let label, reason = split rest in
               Some (name ^ " " ^ label, reason)
             else Some (name, rest))

let where (d : decl) = Printf.sprintf "%s:%d" d.loc.loc_start.pos_fname d.loc.loc_start.pos_lnum

let () =
  match Array.to_list Sys.argv with
  | _ :: allow_file :: dirs ->
      walk "lib" (fun path ->
          if Filename.check_suffix path ".cmti" then
            let cmt = Cmt_format.read_cmt path in
            match cmt.cmt_annots with
            | Interface sg -> declare cmt.cmt_modname (unit_path cmt.cmt_modname) sg.sig_items
            | _ -> ());
      declare_fields ();
      List.iter
        (fun dir ->
          walk dir (fun path ->
              if Filename.check_suffix path ".cmt" then
                let cmt = Cmt_format.read_cmt path in
                match cmt.cmt_annots with
                | Implementation str -> uses ~test:(dir = "test") cmt.cmt_modname str
                | _ -> ()))
        dirs;
      let allow = read_allow allow_file in
      let errors = ref 0 in
      let report kind name where =
        incr errors;
        Printf.printf "%-10s %s  %s\n" kind name where
      in
      let offenders =
        Shape.Uid.Tbl.fold
          (fun uid d acc -> if Shape.Uid.Tbl.mem shipped uid then acc else (uid, d) :: acc)
          decls []
        |> List.sort (fun (_, a) (_, b) -> compare a.name b.name)
      in
      List.iter
        (fun (uid, d) ->
          if not (List.mem_assoc d.name allow) then
            report (if Shape.Uid.Tbl.mem tested uid then "test-only" else "unused") d.name (where d))
        offenders;
      let knob_offenders =
        Hashtbl.fold
          (fun name d acc -> if Hashtbl.mem shipped_knobs name then acc else d :: acc)
          knobs []
        |> List.sort compare
      in
      List.iter
        (fun d ->
          if not (List.mem_assoc d.name allow) then
            report (if Hashtbl.mem tested_knobs d.name then "test-only" else "unused") d.name (where d))
        knob_offenders;
      let always name = Hashtbl.mem passed name && not (Hashtbl.mem omitted name) in
      let always_passed =
        Hashtbl.fold (fun name d acc -> if always name then d :: acc else acc) knobs []
        |> List.sort compare
      in
      List.iter
        (fun d -> if not (List.mem_assoc d.name allow) then report "always" d.name (where d))
        always_passed;
      List.iter
        (fun (name, reason) ->
          let state =
            match Hashtbl.find_opt decl_by_name name with
            | Some uid -> Some (Shape.Uid.Tbl.mem shipped uid, Shape.Uid.Tbl.mem tested uid)
            (* listed because every shipped application passes it *)
            | None when always name -> Some (false, true)
            | None when Hashtbl.mem knobs name ->
                Some (Hashtbl.mem shipped_knobs name, Hashtbl.mem tested_knobs name)
            | None -> None
          in
          match state with
          | None -> report "stale" name "not declared in any lib/ interface"
          | Some (true, _) -> report "stale" name "has a shipped use"
          | Some (false, false) -> report "stale" name "has no use at all"
          | Some _ when reason = "" -> report "no-reason" name "gives no reason"
          | Some _ -> ())
        allow;
      let count param ds = List.length (List.filter (fun d -> String.contains d.name '?' = param) ds) in
      let all_knobs = Hashtbl.fold (fun _ d acc -> d :: acc) knobs [] in
      Printf.printf
        "exports: %d vals in lib/ interfaces, %d without a shipped caller; %d optional \
         parameters, %d never passed by shipped code, %d always passed; %d Config fields, \
         %d never set by shipped code; %d allowlisted\n"
        (Shape.Uid.Tbl.length decls) (List.length offenders) (count true all_knobs)
        (count true knob_offenders) (List.length always_passed) (count false all_knobs)
        (count false knob_offenders) (List.length allow);
      if !errors > 0 then exit 1
  | _ ->
      prerr_endline "usage: exports.exe ALLOW DIR...";
      exit 2
