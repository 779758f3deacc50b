"""Tests for the command line interface (the modern 'sim [file]')."""

import pytest

from repro.cli import main


@pytest.fixture
def spec_file(tmp_path, counter_spec_text):
    path = tmp_path / "counter.asim"
    path.write_text(counter_spec_text)
    return path


class TestCompileCommand:
    def test_python_to_stdout(self, spec_file, capsys):
        assert main(["compile", str(spec_file)]) == 0
        out = capsys.readouterr().out
        assert "def simulate" in out

    def test_pascal_output(self, spec_file, capsys):
        assert main(["compile", "--pascal", str(spec_file)]) == 0
        assert "program simulator" in capsys.readouterr().out

    def test_output_file(self, spec_file, tmp_path, capsys):
        target = tmp_path / "simulator.py"
        assert main(["compile", str(spec_file), "-o", str(target)]) == 0
        assert "def simulate" in target.read_text()
        assert "wrote" in capsys.readouterr().out

    def test_no_optimize(self, spec_file, capsys):
        assert main(["compile", "--no-optimize", str(spec_file)]) == 0
        assert "dologic(4," in capsys.readouterr().out


class TestRunCommand:
    def test_run_with_cycles(self, spec_file, capsys):
        assert main(["run", str(spec_file), "-c", "10"]) == 0
        out = capsys.readouterr().out
        assert "outputs: 0 1 2 3 4 5 6 7 0 1" in out
        assert "10 cycles" in out

    def test_run_interpreter_backend(self, spec_file, capsys):
        assert main(["run", str(spec_file), "-c", "5", "-b", "interpreter"]) == 0
        assert "interpreter: 5 cycles" in capsys.readouterr().out

    def test_run_with_trace_and_stats(self, spec_file, capsys):
        assert main(["run", str(spec_file), "-c", "3", "--trace", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "Cycle" in out
        assert "cycles executed" in out

    def test_run_with_inputs(self, tmp_path, capsys):
        spec = tmp_path / "io.asim"
        spec.write_text(
            "# io\nacc inport outport .\n"
            "A acc 4 inport 0\n"
            "M inport 1 0 2 2\n"
            "M outport 1 inport 3 2\n"
            ".\n"
        )
        assert main(["run", str(spec), "-c", "3", "-i", "5", "-i", "6", "-i", "7"]) == 0
        assert "outputs:" in capsys.readouterr().out

    def test_missing_cycles_reports_error(self, spec_file, capsys):
        assert main(["run", str(spec_file)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_reports_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.asim"), "-c", "1"]) == 1
        assert "error" in capsys.readouterr().err


class TestMachinesAndDemo:
    def test_machines_listing(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "counter" in out
        assert "stack-machine-sieve" in out

    def test_demo_runs_counter(self, capsys):
        assert main(["demo", "counter", "-c", "12"]) == 0
        out = capsys.readouterr().out
        assert "12 cycles" in out
        assert "cycles executed" in out

    def test_demo_unknown_machine(self, capsys):
        with pytest.raises(KeyError):
            main(["demo", "does-not-exist"])

    def test_cache_is_not_a_command(self, capsys):
        # prepared artifacts live only in memory; there is nothing on
        # disk to inspect or prune
        with pytest.raises(SystemExit) as exit_info:
            main(["cache", "info"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'cache'" in capsys.readouterr().err


class TestNetlistCommand:
    def test_netlist_output(self, spec_file, capsys):
        assert main(["netlist", str(spec_file)]) == 0
        out = capsys.readouterr().out
        assert "bill of materials" in out
        assert "wiring list" in out

    def test_parse_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.asim"
        bad.write_text("no comment line\n")
        assert main(["netlist", str(bad)]) == 1
        assert "error" in capsys.readouterr().err


class TestServeBatchCommand:
    def test_serve_batch_reports_throughput(self, spec_file, capsys):
        assert main(["serve-batch", str(spec_file), "-n", "6", "-w", "2",
                     "-c", "10"]) == 0
        out = capsys.readouterr().out
        # the default serial strategy runs inline: one worker, whatever -w
        assert "6 runs on compiled (1 workers, serial executor)" in out
        assert "6/6 runs ok" in out
        assert "runs/sec" in out

    def test_serve_batch_check_verifies_bit_identity(self, spec_file, capsys):
        assert main(["serve-batch", str(spec_file), "-n", "4", "-c", "10",
                     "--check"]) == 0
        assert "bit-identical to sequential" in capsys.readouterr().out

    @pytest.mark.parametrize("backend", ["interpreter", "compiled"])
    def test_serve_batch_backend_choice(self, spec_file, backend, capsys):
        assert main(["serve-batch", str(spec_file), "-n", "2", "-c", "5",
                     "-b", backend, "--check"]) == 0
        assert backend in capsys.readouterr().out

    def test_serve_batch_failures_exit_nonzero(self, spec_file, capsys):
        # no -c and the counter spec declares no '= N' cycle count
        assert main(["serve-batch", str(spec_file), "-n", "2"]) == 1
        assert "failed" in capsys.readouterr().err

    @pytest.mark.parametrize("executor",
                             ["serial", "process", "thread", "lane"])
    def test_serve_batch_executor_choice(self, spec_file, executor, capsys):
        assert main(["serve-batch", str(spec_file), "-n", "4", "-c", "10",
                     "-w", "2", "--executor", executor, "--check"]) == 0
        out = capsys.readouterr().out
        # the aliases are reported as the strategy they resolve to
        strategy = "process" if executor == "process" else "serial"
        assert f"{strategy} executor" in out
        assert "bit-identical to sequential" in out
        assert "runs/sec busy" in out  # the per-worker breakdown

    def test_serve_batch_chunk_size(self, spec_file, capsys):
        assert main(["serve-batch", str(spec_file), "-n", "6", "-c", "5",
                     "--executor", "process", "-w", "2",
                     "--chunk-size", "6"]) == 0
        out = capsys.readouterr().out
        # one chunk: exactly one worker line in the breakdown
        assert out.count("runs/sec busy") == 1


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, spec_file):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro", "run", str(spec_file), "-c", "4"],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0
        assert "4 cycles" in completed.stdout
