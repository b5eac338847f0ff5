#!/usr/bin/env bash
# Keep-or-cut audit: list every public item under crates/*/src that nothing
# outside its own files uses.
#
# Covers every `pub fn`, `struct`, `enum`, `trait`, `type` and `const`. Each
# line of crates, src/, examples, root tests and benchmark/src is indexed
# once as code or test: `tests/` dirs and lines after a file's first
# `#[cfg(test)]` count as test. Comment lines and `pub use` re-exports are
# skipped, so a re-export is not a caller. A name's "own" files are all
# those defining it, so engines that each define a `run` and call their own
# do not count as outside uses of each other. An item with no use at all
# outside its own files' tests is printed bare; an item whose only outside
# uses are tests is marked `(tests only)`. A type or const counts as used
# wherever its name appears as a word. A name defined only by `pub fn`
# counts as used only where it is called or named as a value: `.name`,
# `::name`, `name(` or `name::<`, or `name` alone as an argument or the
# right side of `=` — so a fn named like a word of prose in a string or
# usage text no longer hides behind it. A dead `new` or `len` still hides
# behind a live method call of the same name.
#
# Run from the repository root; the expected output is
# scripts/keep_or_cut.expected, and every line in it is a keeper named in
# DESIGN.md's "Keep-or-cut" section.
set -u

corpus=$(mktemp)
trap 'rm -f "$corpus"' EXIT
for g in $(find crates src examples tests benchmark/src -name '*.rs' | sort); do
  awk -v f="$g" '/^#\[cfg\(test\)\]/ { t = 1 }
    /^[ \t]*pub use / { u = 1 }
    u { if (/;/) u = 0; next }
    !/^[ \t]*\/\// {
      print ((t || f ~ /(^|\/)tests\//) ? "test" : "code") "\t" f "\t" $0 }' "$g"
done > "$corpus"
def='^\s*pub (const )?(fn|struct|enum|trait|type|const) '
sources=$(find crates/*/src -name '*.rs' | sort)
for name in $(grep -ohP "$def\K\w+" $sources | sort -u); do
  owners=$(grep -lP "$def$name\b" $sources | tr '\n' ' ')
  use="\b$name\b"
  if ! grep -qP '^\s*pub (struct|enum|trait|type|const) '"$name\b" $sources; then
    use="(\.|::)$name\b|\b$name\s*(\(|::<)|[(,=]\s*$name\s*[,);]"
  fi
  grep -wF "$name" "$corpus" | grep -P "^\w+\t[^\t]+\t.*($use)" |
    grep -vP "\b(fn|struct|enum|trait|type|const|mod) $name\b" | cut -f1,2 | sort -u |
    awk -F'\t' -v name="$name" -v owners="$owners" '
      BEGIN { n = split(owners, o, " "); for (i = 1; i <= n; i++) own[o[i]] = 1 }
      { if ($2 in own) { if ($1 == "code") self = 1 } else if ($1 == "code") code = 1; else test = 1 }
      END { if (code) exit
            for (i = 1; i <= n; i++)
              if (test) print o[i] ": " name " (tests only)"
              else if (!self) print o[i] ": " name }'
done | sort
