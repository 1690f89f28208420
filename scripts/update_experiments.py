#!/usr/bin/env python3
"""Regenerates the E-1..E-9 tables in EXPERIMENTS.md from bench_output.txt."""
import re, sys

def medians(path="bench_output.txt"):
    text = open(path).read()
    pat = re.compile(r"^(\S+?)(?:\s*\n\s+|\s+)time:\s+\[[\d.]+ \w+ ([\d.]+) (\w+) [\d.]+ \w+\]", re.M)
    out = {}
    for m in pat.finditer(text):
        name = m.group(1).strip()
        if name.startswith("Benchmarking"):
            continue
        val, unit = float(m.group(2)), m.group(3)
        out[name] = (val, unit)
    return out

def us(entry):
    """Format as a human-friendly time string."""
    if entry is None:
        return "—"
    v, unit = entry
    mult = {"ns": 1e-3, "µs": 1.0, "us": 1.0, "ms": 1e3, "s": 1e6}[unit]
    x = v * mult  # µs
    if x < 1:
        return f"{x*1000:.0f} ns"
    if x < 1000:
        return f"{x:.3g} µs"
    return f"{x/1000:.3g} ms"

M = medians()
g = lambda k: us(M.get(k))
lines = []
A = lines.append

A("### E-1 Predicate evaluation (`benches/predicate_eval.rs`)")
A("")
A("| candidates (groups) | `size = {4}` | quartets query (map ⊇ ∧ size =) |")
A("|---|---|---|")
for n in [100, 400, 1600, 6400]:
    A(f"| {n//4} (n={n}) | {g(f'predicate_eval/class_size/size4/{n}')} | {g(f'predicate_eval/class_size/quartets/{n}')} |")
A("")
A("Linear in the candidate class across a 64× sweep. Clause-shape results")
A("(same 400-musician fixture):")
A("")
A("| layout | DNF | CNF |")
A("|---|---|---|")
for shape in ["1c1a", "1c4a", "4c1a", "4c4a"]:
    A(f"| {shape[0]} clause(s) × {shape[2]} atom(s) | {g(f'predicate_eval/shape/eval/{shape}_dnf')} | {g(f'predicate_eval/shape/eval/{shape}_cnf')} |")
A("")
A("Short-circuiting shows directly: AND-of-clauses (CNF, 4c1a) fails fast on")
A("unselective atoms while OR-of-clauses (DNF) must try every clause.")
A("")
A("### E-2 Derived-class maintenance (`benches/derived_class.rs`)")
A("")
A("| n | full refresh | delta refresh (1 changed musician) | affected-candidate analysis |")
A("|---|---|---|---|")
for n in [100, 400, 1600]:
    A(f"| {n} | {g(f'derived_class/full_refresh/{n}')} | {g(f'derived_class/delta_pipeline/{n}')} | {g(f'derived_class/affected_candidates/{n}')} |")
A("")
A("The delta arm is the session's refresh path, `DerivedState::refresh`, on")
A("a long-lived state: each iteration toggles one musician's instrument,")
A("drains the change log into the shared postings once, and settles only")
A("the groups the change can reach, so its cost follows how many groups")
A("reach that musician rather than the class size. The *analysis itself* —")
A("which candidates can a change affect — is sub-microsecond and flat,")
A("while the full refresh grows with the class.")
A("")
A("### E-3 Query engine baselines (`benches/baselines.rs`)")
A("")
A("Same quartets query, identical answers (equivalence property-tested):")
A("")
A("| n | ISIS eval | + indexes | parallel ×4 | RA plan | RA cached | RA encode | QBE naive | QBE compiled |")
A("|---|---|---|---|---|---|---|---|---|")
for n in [100, 400, 1600]:
    A("| {} | {} | {} | {} | {} | {} | {} | {} | {} |".format(
        n,
        g(f'baselines/isis_eval/{n}'), g(f'baselines/isis_indexed/{n}'),
        g(f'baselines/isis_parallel4/{n}'),
        g(f'baselines/ra_plan_eval/{n}'), g(f'baselines/ra_plan_cached/{n}'),
        g(f'baselines/ra_encode/{n}'), g(f'baselines/qbe_eval/{n}'),
        g(f'baselines/qbe_compiled/{n}')))
A("")
A("Shape: the navigational per-candidate evaluator beats the materialising")
A("relational plan (even memoised) and the QBE unifier by growing factors;")
A("compiling QBE templates to hash joins closes most of QBE's gap; index")
A("pruning stacks a further win on top of ISIS evaluation; the 4-wide pool")
A("only pays off once per-candidate work dominates its chunk handoff")
A("(visible in the trend across n).")
A("")
A("### E-4 Navigation / follow (`benches/navigation.rs`, n=1600)")
A("")
A("| map | from one entity | from the whole class (400 groups) |")
A("|---|---|---|")
A(f"| `members` | {g('navigation/map/from_one/len1_members')} | {g('navigation/map/from_all/len1_members')} |")
A(f"| `members plays` | {g('navigation/map/from_one/len2_members_plays')} | {g('navigation/map/from_all/len2_members_plays')} |")
A(f"| `members plays family` | {g('navigation/map/from_one/len3_members_plays_family')} | {g('navigation/map/from_all/len3_members_plays_family')} |")
A("")
A(f"A full session `follow` (command + page push) costs {g('navigation/session_follow/follow_plays_from_edith')};")
A(f"rebuilding the scene after it, {g('navigation/session_follow/scene_after_follow')}. Replaying the")
A(f"**entire §4.2 session** — ~60 commands and 12 scene captures — takes {g('navigation/replay/holiday_party_full')},")
A("orders of magnitude inside an interactive frame (the paper's implicit")
A("responsiveness requirement).")
A("")
A("### E-5 Groupings vs indexes (`benches/grouping.rs`)")
A("")
A("| n | full grouping family | one set by scan | index build | one set by index |")
A("|---|---|---|---|---|")
for n in [100, 400, 1600]:
    A(f"| {n} | {g(f'grouping/grouping_sets/{n}')} | {g(f'grouping/one_set_scan/{n}')} | {g(f'grouping/index_build/{n}')} | {g(f'grouping/one_set_index/{n}')} |")
A("")
A("The paper's groupings are \"completely determined from the parent class")
A("and an attribute\" — recomputed on demand they cost O(|C|); one index")
A("build (≈ one family computation) then answers set lookups in constant")
A("time.")
A("")
A("### E-6 Storage (`benches/storage.rs`)")
A("")
A("| n | snapshot save | snapshot load |")
A("|---|---|---|")
for n in [100, 400, 1600]:
    A(f"| {n} | {g(f'storage/snapshot/save/{n}')} | {g(f'storage/snapshot/load/{n}')} |")
A("")
A(f"WAL append: {g('storage/wal/append/osflush')} with OS flushing, {g('storage/wal/append/fsync')} with")
A(f"per-op fsync (durability is fsync-bound, as it must be). Recovery replays")
A(f"5 000 logged operations in {g('storage/wal/replay_5000_ops')}, so crashed-session recovery is")
A("effectively free at interactive scales.")
A("")
A("### E-7 Rendering (`benches/render.rs`)")
A("")
A("| baseclasses | forest build | ASCII render | SVG render |")
A("|---|---|---|---|")
for n in [4, 16, 64]:
    A(f"| {n} | {g(f'render/build/forest_view/{n}')} | {g(f'render/backend/ascii/{n}')} | {g(f'render/backend/svg/{n}')} |")
A("")
A(f"The network view builds in {g('render/build/network_view_instruments')} and a two-page data view in")
A(f"{g('render/build/data_view_two_pages')}; whole-view latency stays well under a millisecond at 64")
A("baseclasses — far beyond the schemas the figures show.")
A("")
A("### E-8 Constraint enforcement ablation (`benches/constraints.rs`)")
A("")
A("| employees | check one constraint | raw assign (incl. clone) | checked assign |")
A("|---|---|---|---|")
for n in [100, 400, 1600]:
    A(f"| {n} | {g(f'constraints/check/{n}')} | {g(f'constraints/raw_assign/{n}')} | {g(f'constraints/checked_assign/{n}')} |")
A("")
A("`apply_checked` ≈ raw + 2 × check + rollback copy: linear in the")
A("constrained class — right for interactive edits (the §5 use case); bulk")
A("loads should check once at the end.")
A("")
A("### E-9 Inheritance ablation (`benches/inheritance.rs`)")
A("")
A("| chain depth | visible attrs (single parent) | visible attrs (+ secondary chain) | ancestry walk | insert cascade (incl. clone) |")
A("|---|---|---|---|---|")
for d in [2, 8, 32]:
    A(f"| {d} | {g(f'inheritance/visible_attrs_single/{d}')} | {g(f'inheritance/visible_attrs_multi/{d}')} | {g(f'inheritance/ancestry/{d}')} | {g(f'inheritance/insert_cascade/{d}')} |")
A("")
A("Visibility resolution is linear in chain depth, and a secondary parent")
A("chain roughly doubles it (one extra walk) — supporting §2's case that")
A("single-parent trees keep the representation cheap, while showing the §5")
A("extension costs no blow-up.")

table = "\n".join(lines)
doc = open("EXPERIMENTS.md").read()
start = doc.index("### E-1 ")
end = doc.index("## 3. Deviations")
doc = doc[:start] + table + "\n\n" + doc[end:]
open("EXPERIMENTS.md", "w").write(doc)
print("EXPERIMENTS.md tables regenerated;", len(M), "bench entries parsed")
