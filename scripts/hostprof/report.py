#!/usr/bin/env python3
"""Names and summarises the samples written by scripts/hostprof/sampler.c.

    python3 scripts/hostprof/report.py PREFIX [--top N]

reads every PREFIX.<pid>.txt (one sample per line: hex addresses, leaf
first) with its PREFIX.<pid>.maps, names each address with `addr2line -f -i
-C` (inline chains included) or, for libraries without debug info, the
nearest `nm -D` symbol, and prints:

  * buckets: each sample counted once, by its owner (the innermost frame in
    the simulator's namespaces) or else its leaf, as event queue, table
    store, strings, libc or other;
  * self: the innermost function at the sampled PC;
  * inclusive: every function on the sample's stack, counted once.

Shares are of all samples. Only gcc's binutils and python3 are needed.
"""
import bisect
import collections
import functools
import glob
import re
import subprocess
import sys

# The simulator's own namespaces: the first such frame above a sample's PC
# (through inline chains and callers) owns the sample, so a std::map or
# string call made on a service's behalf is charged to that service.
PROJECT = re.compile(r"(azure|azurebench|cluster|faults|framework|hostbench|"
                     r"netsim|obs|sim|storage)::")


def parse_maps(path):
    """Executable file mappings as (start, end, offset, path)."""
    out = []
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) < 6 or "x" not in parts[1] or not parts[5].startswith("/"):
                continue
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            out.append((lo, hi, int(parts[2], 16), parts[5]))
    return sorted(out)


@functools.lru_cache(maxsize=None)
def elf_is_exec(path):
    """True for a non-PIE executable (addresses are absolute)."""
    with open(path, "rb") as f:
        header = f.read(18)
    return len(header) == 18 and int.from_bytes(header[16:18], "little") == 2


def nm_symbols(path):
    """Sorted dynamic function symbols as (start, end, name)."""
    out = subprocess.run(["nm", "-D", "-C", "-S", "--defined-only", path],
                         capture_output=True, text=True).stdout
    syms = []
    for line in out.splitlines():
        parts = line.split(" ", 3)
        if len(parts) == 4 and parts[2] in "TtWi":
            start = int(parts[0], 16)
            syms.append((start, start + int(parts[1], 16), parts[3]))
    return sorted(syms)


def addr2line(path, vaddrs):
    """vaddr -> inline chain of function names, innermost first."""
    names = {}
    chunk = 4000
    for i in range(0, len(vaddrs), chunk):
        batch = vaddrs[i:i + chunk]
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-i", "-C", "-e", path] +
            [hex(a) for a in batch], capture_output=True, text=True).stdout
        current = None
        lines = out.splitlines()
        k = 0
        while k < len(lines):
            if re.fullmatch(r"0x[0-9a-f]+", lines[k]):
                current = int(lines[k], 16)
                names[current] = []
                k += 1
                continue
            # A function line, then its file:line. Without debug info
            # addr2line guesses the nearest dynamic symbol ("??:0"); drop it.
            if current is not None and k + 1 < len(lines) and \
                    not lines[k + 1].startswith("??"):
                names[current].append(lines[k])
            k += 2
    return names


def resolve(prefix):
    """Returns (samples, leaf library per sample): each sample is a list of
    frames, each frame a list of names (inline chain, innermost first)."""
    files = sorted(glob.glob(prefix + ".*.txt"))
    if not files:
        sys.exit(f"hostprof: no samples match {prefix}.*.txt")
    samples, libs = [], []
    for txt in files:
        maps = parse_maps(txt[:-4] + ".maps")
        starts = [m[0] for m in maps]
        raw = []
        with open(txt) as f:
            for line in f:
                addrs = [int(a, 16) for a in line.split()]
                # Return addresses point past the call; name the call itself.
                raw.append([addrs[0]] + [a - 1 for a in addrs[1:]])
        wanted = collections.defaultdict(set)
        where = {}
        for addrs in raw:
            for a in addrs:
                j = bisect.bisect_right(starts, a) - 1
                if j < 0 or a >= maps[j][1]:
                    where[a] = None
                    continue
                lo, _, off, path = maps[j]
                v = a if elf_is_exec(path) else a - lo + off
                where[a] = (path, v)
                wanted[path].add(v)
        named = {}
        for path, vs in wanted.items():
            vs = sorted(vs)
            chains = addr2line(path, vs)
            syms = None
            for v in vs:
                chain = [n for n in chains.get(v, []) if n != "??"]
                if not chain:
                    # No debug info (libc, libstdc++): an exported symbol
                    # covering v, else just the library. Internal functions
                    # such as memcmp's or malloc's workers stay unnamed.
                    if syms is None:
                        syms = nm_symbols(path)
                    k = bisect.bisect_right(syms, (v, float("inf"))) - 1
                    lib = path.rsplit("/", 1)[-1]
                    inside = k >= 0 and syms[k][0] <= v < syms[k][1]
                    chain = [f"{lib}:{syms[k][2] if inside else '?'}"]
                named[(path, v)] = chain
        for addrs in raw:
            frames = [named[where[a]] if where[a] else ["??"] for a in addrs]
            samples.append(frames)
            libs.append(where[addrs[0]][0] if where[addrs[0]] else "")
    return samples, libs


def short(name, width=96):
    name = name.replace("(anonymous namespace)", "{anon}").split("(")[0]
    return name if len(name) <= width else name[:width - 3] + "..."


def bucket(frames, lib):
    owner = next((n for chain in frames for n in chain if PROJECT.match(n)), "")
    if owner.startswith("sim::detail::EventQueue"):
        return "event queue"
    if owner.startswith("azure::TableService"):
        return "table store"
    if re.search(r"basic_string|char_traits", frames[0][0].split("(")[0]):
        return "strings"
    if re.search(r"/libc[.-]|/libm[.-]|/ld-linux", lib):
        return "libc"
    return "other"


def main():
    args = sys.argv[1:]
    top = 15
    if "--top" in args:
        i = args.index("--top")
        top = int(args[i + 1])
        del args[i:i + 2]
    if len(args) != 1:
        sys.exit(__doc__)
    samples, libs = resolve(args[0])
    total = len(samples)
    buckets = collections.Counter(bucket(f, l) for f, l in zip(samples, libs))
    self_ = collections.Counter(short(f[0][0]) for f in samples)
    incl = collections.Counter()
    for frames in samples:
        incl.update({short(n) for chain in frames for n in chain})
    print(f"samples: {total}")
    print("\nbucket           share  samples")
    for name in ("event queue", "table store", "strings", "libc", "other"):
        print(f"{name:<14} {100.0 * buckets[name] / total:6.1f}%  {buckets[name]:7d}")
    for title, counter in (("self", self_), ("inclusive", incl)):
        print(f"\n{title:<9}  share  function")
        for name, n in counter.most_common(top):
            print(f"{'':9} {100.0 * n / total:5.1f}%  {name}")


if __name__ == "__main__":
    main()
