"""Machine simulator tests: arithmetic semantics, memory, control,
syscalls, floats, block counting — including hypothesis checks against
Python reference semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm.assembler import assemble
from repro.machine.errors import MachineError, StepLimitExceeded
from repro.machine.simulator import (
    Machine, bits_to_float, float_to_bits, run_program,
)

WORD = 0xFFFF_FFFF


def run_asm(body: str, **kwargs):
    """Assemble a main-only program whose exit code is $v0 of main."""
    source = (".text\n.ent __start\n__start:\njal main\nmove $a0, $v0\n"
              "li $v0, 10\nsyscall\n.end __start\n"
              ".ent main\nmain:\n" + body + "\njr $ra\n.end main\n")
    return run_program(assemble(source), **kwargs)


def exit_of(body: str, **kwargs) -> int:
    return run_asm(body, **kwargs).exit_code


class TestIntegerArithmetic:
    def test_addu_wraps(self):
        assert exit_of("li $t0, 0x7fffffff\naddiu $t0, $t0, 1\n"
                       "move $v0, $t0") == -0x80000000

    def test_subu(self):
        assert exit_of("li $t0, 5\nli $t1, 9\nsubu $v0, $t0, $t1") == -4

    def test_mul_signed(self):
        assert exit_of("li $t0, -3\nli $t1, 7\nmul $v0, $t0, $t1") == -21

    def test_div_truncates_toward_zero(self):
        assert exit_of("li $t0, -7\nli $t1, 2\ndiv $v0, $t0, $t1") == -3
        assert exit_of("li $t0, 7\nli $t1, -2\ndiv $v0, $t0, $t1") == -3

    def test_div_by_zero_is_zero(self):
        assert exit_of("li $t0, 7\nli $t1, 0\ndiv $v0, $t0, $t1") == 0

    def test_rem_sign_follows_numerator(self):
        assert exit_of("li $t0, -7\nli $t1, 2\nrem $v0, $t0, $t1") == -1
        assert exit_of("li $t0, 7\nli $t1, -2\nrem $v0, $t0, $t1") == 1

    def test_logic_ops(self):
        assert exit_of("li $t0, 12\nli $t1, 10\nand $v0, $t0, $t1") == 8
        assert exit_of("li $t0, 12\nli $t1, 10\nor $v0, $t0, $t1") == 14
        assert exit_of("li $t0, 12\nli $t1, 10\nxor $v0, $t0, $t1") == 6

    def test_nor(self):
        assert exit_of("li $t0, 0\nli $t1, 0\nnor $v0, $t0, $t1") == -1

    def test_slt_signed_vs_sltu(self):
        assert exit_of("li $t0, -1\nli $t1, 1\nslt $v0, $t0, $t1") == 1
        assert exit_of("li $t0, -1\nli $t1, 1\nsltu $v0, $t0, $t1") == 0

    def test_shifts(self):
        assert exit_of("li $t0, 1\nsll $v0, $t0, 5") == 32
        assert exit_of("li $t0, -32\nsra $v0, $t0, 2") == -8
        assert exit_of("li $t0, -32\nsrl $v0, $t0, 28") == 15

    def test_variable_shifts(self):
        assert exit_of("li $t0, 3\nli $t1, 2\nsllv $v0, $t1, $t0") == 12
        assert exit_of("li $t0, 2\nli $t1, -32\nsrav $v0, $t0, $t1") == -8

    def test_zero_register_immutable(self):
        assert exit_of("li $t0, 7\naddu $zero, $t0, $t0\n"
                       "move $v0, $zero") == 0

    def test_lui(self):
        assert exit_of("lui $v0, 2") == 0x20000


class TestMemory:
    def test_word_store_load(self):
        assert exit_of("li $t0, 1234\nsw $t0, -8($sp)\n"
                       "lw $v0, -8($sp)") == 1234

    def test_byte_store_load_signed(self):
        assert exit_of("li $t0, 0xFF\nsb $t0, -4($sp)\n"
                       "lb $v0, -4($sp)") == -1

    def test_byte_load_unsigned(self):
        assert exit_of("li $t0, 0xFF\nsb $t0, -4($sp)\n"
                       "lbu $v0, -4($sp)") == 255

    def test_half_store_load(self):
        assert exit_of("li $t0, -2\nsh $t0, -4($sp)\n"
                       "lh $v0, -4($sp)") == -2
        assert exit_of("li $t0, -2\nsh $t0, -4($sp)\n"
                       "lhu $v0, -4($sp)") == 0xFFFE

    def test_byte_within_word_little_endian(self):
        body = ("li $t0, 0x04030201\nsw $t0, -8($sp)\n"
                "lbu $v0, -7($sp)")
        assert exit_of(body) == 2

    def test_byte_store_preserves_neighbours(self):
        body = ("li $t0, 0x04030201\nsw $t0, -8($sp)\n"
                "li $t1, 0xAA\nsb $t1, -7($sp)\n"
                "lw $v0, -8($sp)")
        assert exit_of(body) == 0x0403AA01

    def test_uninitialized_memory_reads_zero(self):
        assert exit_of("lw $v0, -100($sp)") == 0

    def test_data_segment_initialised(self):
        source = (".data\nv: .word 77\n.text\n.ent __start\n__start:\n"
                  "lw $a0, v\nli $v0, 10\nsyscall\n.end __start\n")
        assert run_program(assemble(source)).exit_code == 77


class TestControlFlow:
    def test_loop_sum(self):
        body = ("li $t0, 0\nli $t1, 0\n"
                "loop: addu $t1, $t1, $t0\naddiu $t0, $t0, 1\n"
                "li $t2, 10\nblt $t0, $t2, loop\nmove $v0, $t1")
        assert exit_of(body) == sum(range(10))

    def test_beq_taken_and_not(self):
        assert exit_of("li $t0, 1\nli $t1, 1\nli $v0, 0\n"
                       "beq $t0, $t1, yes\nli $v0, 9\nyes:") == 0

    def test_regimm_branches(self):
        assert exit_of("li $t0, -1\nli $v0, 0\nbltz $t0, n\nli $v0, 9\n"
                       "n:") == 0
        assert exit_of("li $t0, 0\nli $v0, 0\nbgez $t0, n\nli $v0, 9\n"
                       "n:") == 0

    def test_call_and_return(self):
        source = (".text\n.ent __start\n__start:\njal main\n"
                  "move $a0, $v0\nli $v0, 10\nsyscall\n.end __start\n"
                  ".ent main\nmain:\naddiu $sp, $sp, -8\nsw $ra, 4($sp)\n"
                  "li $a0, 20\njal double\nlw $ra, 4($sp)\n"
                  "addiu $sp, $sp, 8\njr $ra\n.end main\n"
                  ".ent double\ndouble:\naddu $v0, $a0, $a0\njr $ra\n"
                  ".end double\n")
        assert run_program(assemble(source)).exit_code == 40

    def test_jr_to_bad_address_raises(self):
        with pytest.raises(MachineError):
            exit_of("li $t0, 0\njr $t0")

    def test_step_limit(self):
        with pytest.raises(StepLimitExceeded):
            exit_of("loop: b loop", max_steps=1000)


class TestSyscalls:
    def test_print_int(self):
        r = run_asm("li $a0, -5\nli $v0, 1\nsyscall\nli $v0, 0")
        assert r.output == [-5]

    def test_print_char(self):
        r = run_asm("li $a0, 65\nli $v0, 11\nsyscall\nli $v0, 0")
        assert r.output == [65]

    def test_read_int(self):
        r = run_asm("li $v0, 5\nsyscall", inputs=[42])
        assert r.exit_code == 42

    def test_read_int_empty_queue_gives_zero(self):
        r = run_asm("li $v0, 5\nsyscall")
        assert r.exit_code == 0

    def test_unknown_syscall_raises(self):
        with pytest.raises(MachineError):
            exit_of("li $v0, 999\nsyscall")


class TestFloats:
    def test_bits_roundtrip(self):
        for value in (0.0, 1.5, -2.25, 1e10, -1e-10):
            assert bits_to_float(float_to_bits(value)) == \
                pytest.approx(value, rel=1e-6)

    def test_fadd(self):
        body = (f"li $t0, {float_to_bits(1.5)}\n"
                f"li $t1, {float_to_bits(2.25)}\n"
                "fadd $t2, $t0, $t1\nftrunc $v0, $t2")
        assert exit_of(body) == 3

    def test_fdiv_by_zero_is_inf(self):
        body = (f"li $t0, {float_to_bits(1.0)}\n"
                "li $t1, 0\n"
                "fdiv $t2, $t0, $t1\n"
                f"li $t3, {float_to_bits(1e30)}\n"
                "flt $v0, $t3, $t2")
        assert exit_of(body) == 1

    def test_fcvt(self):
        body = ("li $t0, -7\nfcvt $t1, $t0\n"
                f"li $t2, {float_to_bits(-7.0)}\nfeq $v0, $t1, $t2")
        assert exit_of(body) == 1

    def test_ftrunc_truncates(self):
        body = (f"li $t0, {float_to_bits(-2.9)}\nftrunc $v0, $t0")
        assert exit_of(body) == -2

    def test_fneg(self):
        body = (f"li $t0, {float_to_bits(3.5)}\nfneg $t1, $t0\n"
                f"li $t2, {float_to_bits(-3.5)}\nfeq $v0, $t1, $t2")
        assert exit_of(body) == 1

    def test_float_compares(self):
        a, b = float_to_bits(1.0), float_to_bits(2.0)
        assert exit_of(f"li $t0, {a}\nli $t1, {b}\n"
                       "flt $v0, $t0, $t1") == 1
        assert exit_of(f"li $t0, {a}\nli $t1, {b}\n"
                       "fle $v0, $t1, $t0") == 0


class TestBlockCounting:
    def test_loop_block_count(self):
        r = run_asm("li $t0, 0\nli $t2, 7\n"
                    "loop: addiu $t0, $t0, 1\nblt $t0, $t2, loop\n"
                    "move $v0, $t0")
        assert r.exit_code == 7
        # the loop body block executed 7 times
        assert 7 in r.block_counts.values()

    def test_steps_match_block_sum(self, sample_program, sample_result):
        total = 0
        leaders = sorted(sample_result.block_counts)
        for pos, leader in enumerate(leaders):
            end = leaders[pos + 1] if pos + 1 < len(leaders) \
                else sample_program.text_end
            total += sample_result.block_counts[leader] \
                * ((end - leader) // 4)
        assert total == sample_result.steps

    def test_instruction_counts_cover_loads(self, sample_program,
                                            sample_result):
        from repro.profiling.profile import BlockProfile
        counts = BlockProfile.from_execution(
            sample_program, sample_result).load_exec_counts()
        assert set(counts) == set(sample_program.load_addresses())


# -- hypothesis: ALU semantics match a Python reference --------------------

_i32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)


def _as_signed(x):
    x &= WORD
    return x - ((x & 0x8000_0000) << 1)


@given(_i32, _i32)
@settings(max_examples=60, deadline=None)
def test_addu_matches_python(a, b):
    got = exit_of(f"li $t0, {a & WORD}\nli $t1, {b & WORD}\n"
                  "addu $v0, $t0, $t1")
    assert got == _as_signed(a + b)


@given(_i32, _i32)
@settings(max_examples=60, deadline=None)
def test_mul_matches_python(a, b):
    got = exit_of(f"li $t0, {a & WORD}\nli $t1, {b & WORD}\n"
                  "mul $v0, $t0, $t1")
    assert got == _as_signed(a * b)


@given(_i32, st.integers(min_value=0, max_value=31))
@settings(max_examples=60, deadline=None)
def test_sra_matches_python(a, sh):
    got = exit_of(f"li $t0, {a & WORD}\nsra $v0, $t0, {sh}")
    assert got == _as_signed(a >> sh)


@given(_i32, _i32)
@settings(max_examples=60, deadline=None)
def test_slt_matches_python(a, b):
    got = exit_of(f"li $t0, {a & WORD}\nli $t1, {b & WORD}\n"
                  "slt $v0, $t0, $t1")
    assert got == int(a < b)
