"""CPU pipeline and memory accounting tests."""

import pytest

from repro.sim import CostModel, CpuAccount, Kernel, MemoryAccount


def test_cost_model_disk_anchor():
    # Paper §V-B: writing a block of ten 8 kB requests takes 5.03 ms.
    model = CostModel()
    assert model.disk_write_cost(80 * 1024) == pytest.approx(5.03e-3, rel=0.1)


def test_cost_model_monotone_in_size():
    model = CostModel()
    assert model.hash_cost(2000) > model.hash_cost(100)
    assert model.serialize_cost(2000) > model.serialize_cost(100)


def test_pipeline_runs_work_sequentially():
    kernel = Kernel()
    cpu = CpuAccount(kernel, CostModel())
    done = []
    cpu.submit(0.010, lambda: done.append(kernel.now))
    cpu.submit(0.010, lambda: done.append(kernel.now))
    kernel.run()
    assert done == [pytest.approx(0.010), pytest.approx(0.020)]


def test_pipeline_idle_then_busy():
    kernel = Kernel()
    cpu = CpuAccount(kernel, CostModel())
    done = []
    kernel.schedule(1.0, lambda: cpu.submit(0.005, lambda: done.append(kernel.now)))
    kernel.run()
    assert done == [pytest.approx(1.005)]


def test_queue_depth_tracking():
    kernel = Kernel()
    cpu = CpuAccount(kernel, CostModel())
    for _ in range(5):
        cpu.submit(0.010, lambda: None)
    assert cpu.queue_depth == 5
    assert cpu.max_queue_depth == 5
    kernel.run()
    assert cpu.queue_depth == 0


def test_backlog_measures_unfinished_work():
    kernel = Kernel()
    cpu = CpuAccount(kernel, CostModel())
    cpu.submit(0.100, lambda: None)
    assert cpu.pipeline_backlog == pytest.approx(0.100)
    kernel.run()
    assert cpu.pipeline_backlog == 0.0


def test_utilization_counts_all_cores():
    kernel = Kernel()
    cpu = CpuAccount(kernel, CostModel(cores=4))
    cpu.submit(0.100, lambda: None)
    cpu.charge_background(0.100)
    kernel.run()
    kernel.run_until(1.0)
    # 0.2 s of work over 1 s on 4 cores = 5 %.
    assert cpu.utilization() == pytest.approx(0.05)


def test_window_utilization():
    kernel = Kernel()
    cpu = CpuAccount(kernel, CostModel(cores=4))
    cpu.submit(0.2, lambda: None)
    kernel.run()
    kernel.run_until(1.0)
    cpu.reset_window()
    cpu.charge_background(0.4)
    kernel.run_until(2.0)
    assert cpu.window_utilization() == pytest.approx(0.1)


def test_memory_accounting():
    mem = MemoryAccount()
    base = mem.current()
    mem.add("queue", 1000)
    mem.add("queue", 500)
    assert mem.category("queue") == 1500
    assert mem.current() == base + 1500
    mem.release("queue", 700)
    assert mem.current() == base + 800
    assert mem.peak == base + 1500


def test_memory_over_release_rejected():
    mem = MemoryAccount()
    mem.add("queue", 10)
    with pytest.raises(ValueError):
        mem.release("queue", 11)


def test_memory_negative_add_rejected():
    mem = MemoryAccount()
    with pytest.raises(ValueError):
        mem.add("queue", -1)


def test_memory_sampling():
    mem = MemoryAccount()
    mem.add("chain", 100)
    mem.sample(1.0)
    mem.add("chain", 100)
    mem.sample(2.0)
    assert len(mem.series) == 2
    assert mem.series.values[1] > mem.series.values[0]


def test_submit_passes_arguments_and_still_takes_bare_callbacks():
    kernel = Kernel()
    cpu = CpuAccount(kernel, CostModel())
    done = []
    assert cpu.submit(0.010, done.append, "with-arg") == pytest.approx(0.010)
    cpu.submit(0.010, lambda *args: done.append(args), "a", 2)
    cpu.submit(0.010, lambda: done.append("bare"))
    assert cpu.queue_depth == 3
    kernel.run()
    assert done == ["with-arg", ("a", 2), "bare"]
    assert cpu.queue_depth == 0 and cpu.max_queue_depth == 3


def test_raising_pipeline_callback_leaves_queue_depth_consistent():
    kernel = Kernel()
    cpu = CpuAccount(kernel, CostModel())
    done = []

    def boom(label):
        raise RuntimeError(label)

    cpu.submit(0.010, boom, "first")
    cpu.submit(0.010, done.append, "second")
    with pytest.raises(RuntimeError, match="first"):
        kernel.run()
    # The failed item left the pipeline; the one behind it is still queued.
    assert cpu.queue_depth == 1 and kernel.pending == 1
    assert kernel.now == pytest.approx(0.010)
    kernel.run()
    assert done == ["second"] and cpu.queue_depth == 0
