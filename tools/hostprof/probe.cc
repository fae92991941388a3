// hostprof_probe: the fixed workload of the hostprof_smoke test. It spends
// 0.3 s of CPU time in memcpy and memset, each called from its own
// program function, so a working sampler credits most of its memcpy and
// memset samples to copy_pass and clear_pass. Each reads its buffer after
// the call, so the call is not a tail jump and returns into its caller.

#include <cstdio>
#include <cstring>
#include <ctime>
#include <vector>

namespace {

__attribute__((noinline)) char copy_pass(std::vector<char>& dst,
                                         const std::vector<char>& src) {
    std::memcpy(dst.data(), src.data(), src.size());
    return dst.back();
}

__attribute__((noinline)) char clear_pass(std::vector<char>& buf, int value) {
    std::memset(buf.data(), value, buf.size());
    return buf.front();
}

}  // namespace

int main() {
    std::vector<char> a(std::size_t{4} << 20), b(a.size());
    const std::clock_t stop = std::clock() + CLOCKS_PER_SEC * 3 / 10;
    unsigned long sum = 0;
    for (int i = 0; std::clock() < stop; ++i) {
        sum += static_cast<unsigned long>(clear_pass(a, i & 0x7F));
        sum += static_cast<unsigned long>(copy_pass(b, a));
    }
    std::printf("hostprof_probe: checksum %lu\n", sum);
    return 0;
}
