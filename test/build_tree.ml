(* Paths into the dune build tree, resolved from the test binary's own
   location ([_build/default/test/main.exe]) rather than the working
   directory, so the suites find the CLI and the files they read both
   under [dune runtest] and when main.exe is run from the repo root. *)

let root = Filename.dirname (Filename.dirname Sys.executable_name)
let path rel = Filename.concat root rel
let vmor_cli = path "bin/vmor_cli.exe"
