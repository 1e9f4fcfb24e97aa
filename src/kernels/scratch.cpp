#include "kernels/scratch.hpp"

namespace a3 {

namespace {

template <typename T>
void
reserveAtLeast(std::vector<T> &v, std::size_t n)
{
    if (v.capacity() < n)
        v.reserve(n);
}

}  // namespace

void
Scratch::reserveTask(std::size_t rows, std::size_t dims)
{
    reserveAtLeast(sub, rows);
    reserveAtLeast(candScores, rows);
    reserveAtLeast(rowIds, rows);
    reserveAtLeast(kept, rows);
    reserveAtLeast(greedy, rows);
    // Each greedy heap holds at most one entry per column, plus the
    // one being pushed while another is popped.
    reserveAtLeast(maxHeap, dims + 1);
    reserveAtLeast(minHeap, dims + 1);
    reserveAtLeast(queryQ, dims);
    reserveAtLeast(queryQ8, dims);
    reserveAtLeast(queryQ16, dims);
    reserveAtLeast(dotQ, rows);
    reserveAtLeast(dotQ32, rows);
    reserveAtLeast(scoreQ, rows);
    reserveAtLeast(outQ, dims);
}

Scratch &
Scratch::forThread()
{
    thread_local Scratch scratch;
    return scratch;
}

}  // namespace a3
