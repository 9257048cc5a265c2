/**
 * @file
 * Discrete-event task scheduler: a small list-scheduling engine over
 * exclusive resources (CUDA streams, PCIe engines, sampler GPUs) used to
 * validate the pipeline's closed-form overlap math event by event, and
 * to export chrome://tracing timelines of an epoch.
 *
 * Semantics: tasks are non-preemptive; each belongs to one resource;
 * a task starts at max(resource free time, all dependency finish times);
 * tasks on one resource execute in submission order (FIFO streams, like
 * CUDA).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fastgl {
namespace sim {

/** Start/finish of one scheduled task. */
struct TaskTiming
{
    double start = 0.0;
    double finish = 0.0;
};

/** A dependency-aware FIFO-per-resource schedule. */
class TaskSchedule
{
  public:
    /** Register an exclusive resource (stream/engine). @return id. */
    int add_resource(std::string name);

    /**
     * Register a task.
     * @param resource resource id from add_resource
     * @param duration seconds
     * @param deps     tasks that must finish before this one starts
     * @param label    trace label
     * @return task id
     */
    int add_task(int resource, double duration, std::vector<int> deps,
                 std::string label = "");

    /**
     * Execute the schedule.
     * @return the makespan (finish time of the last task).
     */
    double run();

    /** Per-task timings; valid after run(). */
    const std::vector<TaskTiming> &timings() const { return timings_; }

    /**
     * Export the executed schedule as a chrome://tracing JSON file
     * (load via chrome://tracing or https://ui.perfetto.dev).
     * @return false on IO failure or if run() has not been called.
     */
    bool write_chrome_trace(const std::string &path) const;

  private:
    std::vector<std::string> resource_names_;
    std::vector<int> task_resource_;
    std::vector<double> durations_;
    std::vector<std::vector<int>> dependencies_;
    std::vector<std::string> labels_;
    std::vector<TaskTiming> timings_;
    bool ran_ = false;
};

} // namespace sim
} // namespace fastgl
