#include "workloads/transitive_closure.hh"

#include "cpu/system.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sync/lockfree_counter.hh"
#include "sync/tree_barrier.hh"

namespace dsm {

std::vector<std::uint8_t>
referenceClosure(std::vector<std::uint8_t> e, int size)
{
    for (int i = 0; i < size; ++i)
        for (int j = 0; j < size; ++j)
            if (e[j * size + i] && i != j)
                for (int k = 0; k < size; ++k)
                    if (e[i * size + k])
                        e[j * size + k] = 1;
    return e;
}

namespace {

/** Process pid's program, transcribed from Figure 1 of the paper. */
Task
tcThread(System &sys, Proc &p, const TcConfig &cfg,
         LockFreeCounter &counter, TreeBarrier &barrier, Addr flag,
         Addr matrix, std::uint64_t &fetches)
{
    const int size = cfg.size;
    const int procs = sys.numProcs();
    auto cell = [matrix, size](int r, int c) {
        return matrix +
               (static_cast<Addr>(r) * size + c) * WORD_BYTES;
    };

    for (int i = 0; i < size; ++i) {
        if (p.id() == 0) {
            co_await p.store(counter.addr(), 0);
            co_await p.store(flag, 0);
        }
        Word row = 0;
        Word rows = 0;
        co_await barrier.arrive(p);

        for (;;) {
            OpResult done = co_await p.load(flag);
            if (done.value != 0)
                break;
            long remaining = static_cast<long>(size) -
                             static_cast<long>(row) -
                             static_cast<long>(rows) - 1;
            rows = static_cast<Word>(
                (remaining > 0 ? remaining : 0) / 2 / procs + 1);
            row = co_await counter.fetchAdd(p, rows);
            ++fetches;
            if (row >= static_cast<Word>(size)) {
                co_await p.store(flag, 1);
                break;
            }
            Word work = rows < static_cast<Word>(size) - row
                            ? rows
                            : static_cast<Word>(size) - row;
            for (Word j = row; j < row + work; ++j) {
                Word cur_i =
                    (co_await p.load(cell(static_cast<int>(j), i))).value;
                if (cur_i != 0 && static_cast<int>(j) != i) {
                    for (int k = 0; k < size; ++k) {
                        Word pivot_k =
                            (co_await p.load(cell(i, k))).value;
                        if (pivot_k != 0)
                            co_await p.store(
                                cell(static_cast<int>(j), k), 1);
                    }
                }
            }
        }
        co_await barrier.arrive(p);
    }
}

} // namespace

TcResult
runTransitiveClosure(System &sys, const TcConfig &cfg)
{
    const int size = cfg.size;
    dsm_assert(size > 1, "matrix size must exceed 1");

    // Generate the input graph.
    Rng rng(cfg.seed);
    std::vector<std::uint8_t> input(
        static_cast<std::size_t>(size) * size, 0);
    for (int r = 0; r < size; ++r) {
        for (int c = 0; c < size; ++c) {
            if (r == c)
                continue;
            input[static_cast<std::size_t>(r) * size + c] =
                rng.chance(cfg.edge_pct, 100) ? 1 : 0;
        }
    }

    // Lay the matrix out in simulated shared memory.
    Addr matrix = sys.alloc(static_cast<std::size_t>(size) * size *
                                WORD_BYTES,
                            BLOCK_BYTES);
    for (int r = 0; r < size; ++r)
        for (int c = 0; c < size; ++c)
            sys.writeInit(matrix + (static_cast<Addr>(r) * size + c) *
                                       WORD_BYTES,
                          input[static_cast<std::size_t>(r) * size + c]);

    LockFreeCounter counter(sys, cfg.prim);
    TreeBarrier barrier(sys, sys.numProcs());
    Addr flag = sys.alloc(BLOCK_BYTES, BLOCK_BYTES);
    std::uint64_t fetches = 0;

    Tick t0 = sys.now();
    for (int i = 0; i < sys.numProcs(); ++i) {
        sys.spawn(tcThread(sys, sys.proc(i), cfg, counter, barrier, flag,
                           matrix, fetches));
    }
    RunResult rr = sys.run();

    TcResult res;
    res.completed = rr.completed;
    res.elapsed = sys.now() - t0;
    res.counter_fetches = fetches;

    std::vector<std::uint8_t> expect = referenceClosure(input, size);
    res.correct = true;
    for (int r = 0; r < size && res.correct; ++r) {
        for (int c = 0; c < size; ++c) {
            Word got = sys.debugRead(
                matrix + (static_cast<Addr>(r) * size + c) * WORD_BYTES);
            bool want =
                expect[static_cast<std::size_t>(r) * size + c] != 0;
            if ((got != 0) != want) {
                res.correct = false;
                break;
            }
        }
    }
    sys.reapTasks();
    return res;
}

} // namespace dsm
