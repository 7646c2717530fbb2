open Value

let num1 f = fun _ args -> Vnum (f (to_number (arg 0 args)))

let math_object prng =
  let o = new_obj () in
  let def name f = obj_set o name (native name f) in
  def "floor" (num1 Float.floor);
  def "ceil" (num1 Float.ceil);
  def "round" (num1 Float.round);
  def "abs" (num1 Float.abs);
  def "sqrt" (num1 Float.sqrt);
  def "log" (num1 Float.log);
  def "exp" (num1 Float.exp);
  def "pow" (fun _ args -> Vnum (Float.pow (to_number (arg 0 args)) (to_number (arg 1 args))));
  def "min" (fun _ args ->
      match args with
      | [] -> Vnum Float.infinity
      | _ -> Vnum (List.fold_left (fun acc v -> Float.min acc (to_number v)) Float.infinity args));
  def "max" (fun _ args ->
      match args with
      | [] -> Vnum Float.neg_infinity
      | _ ->
        Vnum (List.fold_left (fun acc v -> Float.max acc (to_number v)) Float.neg_infinity args));
  def "random" (fun _ _ -> Vnum (Nk_util.Prng.float prng 1.0));
  obj_set o "PI" (Vnum Float.pi);
  obj_set o "E" (Vnum (Float.exp 1.0));
  Vobj o

let install ?(seed = 42) ctx =
  let prng = Nk_util.Prng.create seed in
  let def name v = Interp.define_global ctx name v in
  def "Math" (math_object prng);
  def "String" (native "String" (fun _ args -> Vstr (Interp.text ctx (arg 0 args))));
  def "Number" (native "Number" (fun _ args -> Vnum (to_number (arg 0 args))));
  def "Boolean" (native "Boolean" (fun _ args -> Vbool (truthy (arg 0 args))));
  def "parseInt" (native "parseInt" (fun _ args ->
      let s = String.trim (to_string (arg 0 args)) in
      (* Take the longest numeric prefix, as JS does. *)
      let n = String.length s in
      let stop = ref 0 in
      let i = ref 0 in
      if !i < n && (s.[!i] = '-' || s.[!i] = '+') then incr i;
      while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do
        incr i;
        stop := !i
      done;
      if !stop = 0 then Vnum Float.nan
      else
        match int_of_string_opt (String.sub s 0 !stop) with
        | Some v -> Vnum (float_of_int v)
        | None -> Vnum Float.nan));
  def "parseFloat" (native "parseFloat" (fun _ args ->
      match float_of_string_opt (String.trim (to_string (arg 0 args))) with
      | Some v -> Vnum v
      | None -> Vnum Float.nan));
  def "isNaN" (native "isNaN" (fun _ args -> Vbool (Float.is_nan (to_number (arg 0 args)))));
  def "ByteArray" (native "ByteArray" (fun _ args ->
      match args with
      | [] -> Vbytes (new_bytes ())
      | [ Vstr s ] -> Vbytes (bytes_of_string s)
      | [ Vbytes b ] -> Vbytes (bytes_of_string (bytes_to_string b))
      | _ -> error "ByteArray: expected no argument or a string"))
