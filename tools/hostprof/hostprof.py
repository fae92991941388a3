#!/usr/bin/env python3
"""Run a program under the hostprof sampler and symbolize its samples.

  python3 tools/hostprof/hostprof.py run --lib LIB --out PROF [--top N]
          [--min-samples N] [--min-callers N] -- PROGRAM [ARGS...]
      Run PROGRAM with LIB (libhostprof.so) preloaded, writing its samples
      to PROF (one per millisecond of CPU time, at most one per kernel
      tick), then print the report. Exits 1 when PROGRAM fails, the
      profile holds fewer than --min-samples samples, or fewer than
      --min-callers memcpy/memset/syscall samples found their caller
      (both default 0).
  python3 tools/hostprof/hostprof.py report PROF [--top N]
      Print the report of an existing profile.

The report gives each sample a class and a symbol. Symbols come from `nm`
(the static table, else the dynamic one). libc is stripped, so its samples
are classified by instruction instead:

  memcpy   the PC is a `rep movs` (the large-copy path of memcpy/memmove),
           or lies in a libc function whose code holds one (the vector
           loops of the same memmove);
  memset   likewise for `rep stos`;
  syscall  the PC follows a `syscall` instruction: the sample was taken in
           the kernel (futex waits and wakes, brk, madvise, mmap, ...);
  lock     pthread mutex, condition variable and lll_ lock code;
  malloc   malloc, free and their exported relatives;
  libc     any other libc code.

A libc function is the range from one .eh_frame_hdr entry to the next; it
is named by an exported symbol at its start, or `libc@0x...`. PCs in other
objects get the class `program` (the profiled binary), or the object's name.

Each memcpy, memset and syscall sample is also credited to its caller: the
first of the sample's caller candidates that is a return address in the
profiled binary (it lies in the binary's code and follows a call
instruction). The candidates are the word at the interrupted RSP, which is
the return address while a frameless leaf such as memcpy runs, then the
return addresses of the RBP frame chain. libc keeps no frame pointers, so
inside a libc function that has pushed or called, only the chain of the
program's own frames reaches the program, and only a program built with
-fno-omit-frame-pointer has such a chain:

  cmake -B build-fp -S . -DCMAKE_CXX_FLAGS=-fno-omit-frame-pointer

(hybench: configure .bench_build the same way). Without it, samples whose
RSP word is not a return address stay uncredited.
"""

import argparse
import bisect
import collections
import os
import struct
import subprocess
import sys

REP_MOVS = (b"\xf3\xa4", b"\xf3\xa5", b"\xf3\x48\xa5")
REP_STOS = (b"\xf3\xaa", b"\xf3\xab", b"\xf3\x48\xab")
SYSCALL = b"\x0f\x05"
LOCK_PREFIXES = ("pthread_mutex", "pthread_cond", "pthread_rwlock",
                 "pthread_spin", "__lll", "lll_", "sem_")
MALLOC_NAMES = ("malloc", "free", "calloc", "realloc", "cfree", "memalign",
                "posix_memalign", "aligned_alloc", "valloc", "pvalloc",
                "__libc_malloc", "__libc_free", "__libc_calloc",
                "__libc_realloc", "__libc_memalign", "malloc_trim")


def parse_profile(path):
    """Header dict, executable file mappings [(start, end, offset, path)],
    the program's path (the first file mapping) and the samples, each
    [PC, caller candidates...] (version 1 profiles hold the PC alone)."""
    header, maps, samples, program = {}, [], [], None
    with open(path) as f:
        first = f.readline().split()
        if len(first) < 2 or first[0] != "hostprof":
            raise SystemExit("%s: not a hostprof profile" % path)
        for kv in first[2:]:
            k, _, v = kv.partition("=")
            header[k] = int(v)
        for line in f:
            if line.startswith("map "):
                fields = line[4:].split(None, 5)
                if len(fields) < 6:
                    continue  # anonymous mapping
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                path_ = fields[5].strip()
                if program is None and path_.startswith("/"):
                    program = path_
                if "x" in fields[1] and path_.startswith("/"):
                    maps.append((lo, hi, int(fields[2], 16), path_))
            elif line.strip():
                samples.append([int(x, 16) for x in line.split()])
    maps.sort()
    return header, maps, program, samples


class Elf:
    """Just enough ELF64 for symbolization: the load segments, the
    .eh_frame_hdr function table and file bytes at a virtual address."""

    def __init__(self, path):
        with open(path, "rb") as f:
            self.data = f.read()
        d = self.data
        if d[:4] != b"\x7fELF" or d[4] != 2:
            raise ValueError("not ELF64")
        phoff, shoff = struct.unpack_from("<QQ", d, 32)
        phentsize, phnum, shentsize, shnum, shstrndx = struct.unpack_from(
            "<HHHHH", d, 54)
        # PT_LOAD segments: vaddr -> file offset.
        self.loads = []
        for i in range(phnum):
            ptype, _, off, vaddr, _, filesz = struct.unpack_from(
                "<IIQQQQ", d, phoff + i * phentsize)
            if ptype == 1:
                self.loads.append((vaddr, off, filesz))
        self.sections = {}
        if shoff and shstrndx < shnum:
            str_off = struct.unpack_from(
                "<Q", d, shoff + shstrndx * shentsize + 24)[0]
            for i in range(shnum):
                name, _, _, addr, off, size = struct.unpack_from(
                    "<IIQQQQ", d, shoff + i * shentsize)
                end = d.index(b"\0", str_off + name)
                self.sections[d[str_off + name:end].decode()] = (addr, off,
                                                                   size)
        self.func_starts = self._eh_frame_starts()

    def _eh_frame_starts(self):
        # The common layout only: eh_frame_ptr pcrel|sdata4, fde_count
        # udata4, table datarel|sdata4 pairs (initial_loc, fde).
        if ".eh_frame_hdr" not in self.sections:
            return []
        addr, off, _ = self.sections[".eh_frame_hdr"]
        ver, ptr_enc, cnt_enc, tab_enc = self.data[off:off + 4]
        if (ver, ptr_enc, cnt_enc, tab_enc) != (1, 0x1B, 0x03, 0x3B):
            return []
        (count,) = struct.unpack_from("<I", self.data, off + 8)
        starts = [addr + struct.unpack_from("<i", self.data,
                                            off + 12 + 8 * i)[0]
                  for i in range(count)]
        return sorted(starts)

    def vaddr_of_offset(self, off):
        for seg_vaddr, seg_off, filesz in self.loads:
            if seg_off <= off < seg_off + filesz:
                return seg_vaddr + off - seg_off
        return off

    def bytes_at(self, vaddr, n):
        for seg_vaddr, seg_off, filesz in self.loads:
            if seg_vaddr <= vaddr and vaddr + n <= seg_vaddr + filesz:
                o = seg_off + vaddr - seg_vaddr
                return self.data[o:o + n]
        return b""

    def func_range(self, vaddr):
        i = bisect.bisect_right(self.func_starts, vaddr) - 1
        if i < 0:
            return None
        end = (self.func_starts[i + 1] if i + 1 < len(self.func_starts)
               else self.func_starts[i] + 4096)
        return self.func_starts[i], end


def nm_symbols(path):
    """Sorted [(vaddr, name)] of the code symbols `nm` finds in @p path."""
    for flags in (["-C"], ["-D", "-C"]):
        try:
            out = subprocess.run(["nm", "--defined-only"] + flags + [path],
                                 capture_output=True, text=True).stdout
        except OSError:
            return []
        syms = []
        for line in out.splitlines():
            parts = line.split(None, 2)
            if len(parts) == 3 and parts[1] in "TtWwi":
                syms.append((int(parts[0], 16), parts[2].split("@")[0]))
        if syms:
            return sorted(syms)
    return []


class Module:
    def __init__(self, path, start, offset):
        self.name = os.path.basename(path)
        self.is_libc = self.name.startswith("libc.so") or \
            self.name.startswith("libc-")
        try:
            self.elf = Elf(path)
        except (OSError, ValueError):
            self.elf = None
        # Load bias: the mapping at @p start holds file offset @p offset.
        self.bias = start - (self.elf.vaddr_of_offset(offset)
                             if self.elf is not None else offset)
        self.syms = nm_symbols(path)
        self.sym_addrs = [a for a, _ in self.syms]
        self.exact = dict(self.syms)
        self.func_class = {}

    def follows_call(self, vaddr):
        """Whether the code bytes before @p vaddr end in a call: e8 rel32,
        or an ff /2 indirect call of 2 to 7 bytes (a heuristic: any ff whose
        ModRM reg field is 2 at one of those distances)."""
        if self.elf is None:
            return False
        b = self.elf.bytes_at(vaddr - 7, 7)
        if len(b) != 7:
            return False
        if b[2] == 0xE8:
            return True
        return any(b[7 - k] == 0xFF and (b[8 - k] >> 3) & 7 == 2
                   for k in range(2, 8))

    def symbol(self, vaddr):
        i = bisect.bisect_right(self.sym_addrs, vaddr) - 1
        return self.syms[i][1] if i >= 0 else "?"

    def classify_libc(self, vaddr):
        """(class, symbol) of a libc PC, by instruction first."""
        elf = self.elf
        if elf is not None:
            here = elf.bytes_at(vaddr, 3)
            if here.startswith(REP_MOVS):
                return "memcpy", "libc: rep movs"
            if here.startswith(REP_STOS):
                return "memset", "libc: rep stos"
            if elf.bytes_at(vaddr - 2, 2) == SYSCALL:
                return "syscall", "libc: syscall"
            fr = elf.func_range(vaddr)
        else:
            fr = None
        if fr is None:
            name = self.symbol(vaddr)
            return self._class_of_name(name), "libc:~" + name
        if fr not in self.func_class:
            name = self.exact.get(fr[0])
            cls = self._class_of_name(name) if name else "libc"
            if cls == "libc":
                body = elf.bytes_at(fr[0], fr[1] - fr[0])
                if any(p in body for p in REP_MOVS):
                    cls = "memcpy"
                elif any(p in body for p in REP_STOS):
                    cls = "memset"
            self.func_class[fr] = (cls, "libc: " + (name or
                                                    "libc@0x%x" % fr[0]))
        return self.func_class[fr]

    @staticmethod
    def _class_of_name(name):
        if name.startswith(LOCK_PREFIXES):
            return "lock"
        if name in MALLOC_NAMES or name.startswith("_int_"):
            return "malloc"
        return "libc"


CREDITED = ("memcpy", "memset", "syscall")


def report(path, top):
    """Print the report; returns (samples, credited samples with a caller)."""
    header, maps, program, samples = parse_profile(path)
    modules = {}
    starts = [m[0] for m in maps]

    def module_of(addr):
        i = bisect.bisect_right(starts, addr) - 1
        if i < 0 or addr >= maps[i][1]:
            return None
        p = maps[i][3]
        if p not in modules:
            modules[p] = Module(p, maps[i][0], maps[i][2])
        return modules[p]

    # Any address of the program's own mapping gives its Module.
    prog = module_of(next((lo for lo, _, _, p in maps if p == program), 0))

    def caller(candidates):
        """Symbol of the first program return address, or None."""
        for addr in candidates:
            if addr and prog is not None and module_of(addr) is prog and \
                    prog.follows_call(addr - prog.bias):
                return prog.symbol(addr - prog.bias - 1)
        return None

    classes = collections.Counter()
    symbols = collections.Counter()
    callers = collections.Counter()
    credited = 0
    for sample in samples:
        pc = sample[0]
        m = module_of(pc)
        if m is None:
            classes["unknown"] += 1
            symbols[("?", "[unmapped]")] += 1
            continue
        vaddr = pc - m.bias
        if m.is_libc:
            cls, sym = m.classify_libc(vaddr)
        else:
            cls = "program" if m is prog else m.name
            sym = m.symbol(vaddr)
        classes[cls] += 1
        symbols[(m.name, sym)] += 1
        if cls in CREDITED:
            credited += 1
            callers[(cls, caller(sample[1:]) or "[no program frame]")] += 1
    n = len(samples)
    print("hostprof: %d samples (%d dropped) from %s" %
          (n, header.get("dropped", 0), path))
    if n == 0:
        return 0, 0
    print("\n%-24s %9s %7s" % ("class", "samples", "share"))
    for cls, c in classes.most_common():
        print("%-24s %9d %6.1f%%" % (cls, c, 100.0 * c / n))
    print("\n%7s %9s  %-20s %s" % ("share", "samples", "object", "symbol"))
    for (mod, sym), c in symbols.most_common(top):
        print("%6.1f%% %9d  %-20s %s" % (100.0 * c / n, c, mod[:20], sym))
    found = credited - sum(c for (_, who), c in callers.items()
                           if who == "[no program frame]")
    print("\n%s samples by first program frame (%d of %d credited)" %
          ("/".join(CREDITED), found, credited))
    print("%7s %9s  %-8s %s" % ("share", "samples", "class", "caller"))
    for (cls, who), c in callers.most_common(top):
        print("%6.1f%% %9d  %-8s %s" % (100.0 * c / n, c, cls, who))
    return n, found


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--lib", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--top", type=int, default=25)
    r.add_argument("--min-samples", type=int, default=0)
    r.add_argument("--min-callers", type=int, default=0)
    r.add_argument("program", nargs=argparse.REMAINDER)
    rep = sub.add_parser("report")
    rep.add_argument("profile")
    rep.add_argument("--top", type=int, default=25)
    a = ap.parse_args()
    if a.cmd == "report":
        report(a.profile, a.top)
        return 0
    prog = a.program[1:] if a.program[:1] == ["--"] else a.program
    if not prog:
        ap.error("run: no program given")
    env = dict(os.environ, LD_PRELOAD=os.path.abspath(a.lib),
               HOSTPROF_OUT=os.path.abspath(a.out))
    rc = subprocess.run(prog, env=env).returncode
    if rc != 0:
        print("hostprof: %s exited with %d" % (prog[0], rc), file=sys.stderr)
        return 1
    n, found = report(a.out, a.top)
    if n < a.min_samples:
        print("hostprof: %d samples, fewer than %d" % (n, a.min_samples),
              file=sys.stderr)
        return 1
    if found < a.min_callers:
        print("hostprof: %d samples found a caller, fewer than %d" %
              (found, a.min_callers), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
