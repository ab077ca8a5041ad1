#!/usr/bin/env bash
# Docs gate, run by CI (.github/workflows/ci.yml, job `docs`) and locally:
#
#   tools/check_docs.sh
#
# 1. Intra-repo markdown links: every relative `](path)` target in the
#    tracked *.md files must exist (http/mailto/pure-#anchor links are
#    skipped; #fragments are stripped before the existence check).
# 2. Header contracts: every public function declaration in the refactored
#    layers' headers (src/minimpi, src/ifdk — including the plan layer
#    src/ifdk/plan.h — src/pfs, src/cluster, which consumes the plan,
#    src/service, the scheduler front door over it, src/engine, the
#    execution engine beneath both workloads, src/iterative, the second
#    workload, src/projector, its forward operator, src/fft + src/filter,
#    the batched SIMD ramp-filter stage, and the SIMD backend surface:
#    src/backproj/simd, src/common/simd_dispatch.h + cpu_features.h) must
#    carry a doc comment on the line above (grep/awk heuristic:
#    two-space-indented class members and column-0 free functions;
#    move/copy boilerplate, destructors and `= default/delete` lines are
#    exempt).
# 3. Stale names: identifiers of deleted FDK execution paths, option knobs,
#    minimpi collectives, the framed row-reduce, the device ledger, the
#    projector's per-sample sampler (now the test oracle's) and the
#    iterative workload's segmented volume all-reduce and the unused
#    common/log layer must not reappear in src/, docs/ or README.md.
set -u
cd "$(dirname "$0")/.."

fail=0

# ---- 1. markdown link check -------------------------------------------------
for md in *.md docs/*.md; do
  [ -f "$md" ] || continue
  dir=$(dirname "$md")
  # Extract every ](target) occurrence, one per line.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"            # strip fragment
    [ -n "$path" ] || continue
    if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
      echo "BROKEN LINK: $md -> $target"
      fail=1
    fi
  done < <(grep -o '](\([^)]*\))' "$md" | sed 's/^](//; s/)$//')
done

# ---- 2. header doc-comment check -------------------------------------------
check_header() {
  awk '
    # Track public/private regions: struct opens public, class private.
    # Column-0 types only — nested types keep the enclosing access.
    /^(class|struct)[[:space:]]+[A-Za-z_]/ {
      if (!/;[[:space:]]*$/) access = /^class/ ? "private" : "public"
    }
    /^[[:space:]]*public:/    { access = "public" }
    /^[[:space:]]*private:/   { access = "private" }
    /^[[:space:]]*protected:/ { access = "private" }
    /^};/                     { access = "public" }  # back to namespace scope
    {
      line = $0
      is_decl = 0
      # Function declarations: column-0 free functions or 2-space class
      # members, starting with an identifier and containing an open paren.
      # (Plain "(  )?" rather than an interval: mawk has no {n} support.)
      if (line ~ /^(  )?[A-Za-z_][A-Za-z0-9_:<>,&* ]*\(/ &&
          line !~ /^[[:space:]]*(if|for|while|return|switch|else|do|using|namespace|template|typedef)[^A-Za-z0-9_]/)
        is_decl = 1
      # Exemptions: rule-of-five boilerplate and destructors.
      if (line ~ /= *(default|delete)/ || line ~ /operator/ ||
          line ~ /^( {2})?~/)
        is_decl = 0
      if (is_decl && access != "private" && prev !~ /\/\//) {
        printf "UNDOCUMENTED: %s:%d: %s\n", FILENAME, FNR, line
        found = 1
      }
      # template<...> lines are transparent: the doc comment sits above them.
      if (line !~ /^[[:space:]]*$/ && line !~ /^[[:space:]]*template/)
        prev = line
    }
    BEGIN { access = "public" }
    END { exit found }
  ' "$1"
}

for header in src/minimpi/*.h src/ifdk/*.h src/pfs/*.h src/cluster/*.h \
              src/service/*.h src/engine/*.h src/iterative/*.h \
              src/projector/*.h src/postproc/*.h src/fft/*.h \
              src/fft/simd/*.h src/filter/*.h src/backproj/simd/*.h \
              src/common/simd_dispatch.h src/common/cpu_features.h; do
  if ! check_header "$header"; then
    fail=1
  fi
done

# ---- 3. stale-name guard ---------------------------------------------------
# `allgather_ring(` must not be preceded by an `i` (iallgather_ring stays).
stale='BlockingFdkWorkload|IfdkStats|ReduceFanIn|ReduceAlgo|use_ring_allgather'
stale+='|fuse_filter_gather|reduce_fan_in|(^|[^i])allgather_ring\(|reduce_tree'
stale+='|compress_wire|WireCodec|make_wire_codec|WireStats|wire_ratio'
stale+='|wire_compression_ratio|device_model|ForwardProjector::sample'
stale+='|IterOptions|ForwardOptions|on_iteration|iterative::art'
stale+='|allreduce_volume|iter_reduce_segments|iter_sweep_tag_budget'
stale+='|iter_allreduce_bytes_per_sweep|DeviceBuffer'
stale+='|log_message|IFDK_LOG_|set_log_level'
if grep -rnE "$stale" src docs README.md; then
  echo "STALE NAME: the lines above name a deleted execution path or knob"
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED"
  exit 1
fi
echo "check_docs: OK"
