// Per-worker task deque with the classic work-stealing discipline: the
// owning worker pushes and pops at the bottom (LIFO — the task it just
// placed is the one whose data is hottest), thieves take from the top
// (FIFO — the oldest task, the one the owner is furthest from reaching).
//
// One mutex per deque, not one per pool: the owner and at most one thief
// contend on a single worker's queue, never the whole pool. This is the
// only queue behind sched::pool. Scheduling order may vary run to run;
// results are keyed by submission index.
#pragma once

#include <deque>
#include <functional>
#include <mutex>
#include <utility>

#include "common/types.h"

namespace meek::sched {

using task = std::function<void()>;

class task_deque {
public:
    // Owner side: newest task goes to the bottom.
    void push_bottom(task t) {
        std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push_back(std::move(t));
    }

    // Owner side: LIFO pop. False when the deque is empty.
    bool pop_bottom(task* out) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (tasks_.empty()) return false;
        *out = std::move(tasks_.back());
        tasks_.pop_back();
        return true;
    }

    // Thief side: FIFO steal of the oldest task. False when empty.
    bool steal_top(task* out) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (tasks_.empty()) return false;
        *out = std::move(tasks_.front());
        tasks_.pop_front();
        return true;
    }

    std::size_t size() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return tasks_.size();
    }

private:
    mutable std::mutex mutex_;
    std::deque<task> tasks_;
};

}  // namespace meek::sched
