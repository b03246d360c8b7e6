"""Workload/placement/deployment validation."""

import numpy as np
import pytest

from repro.engine.placement import (
    CpuPlacement,
    Deployment,
    GpuPlacement,
    Workload,
    weight_footprint,
)
from repro.frameworks.base import IPEX, LLAMACPP, VLLM_CPU, VLLM_GPU
from repro.hardware.cpu import EMR1, EMR2
from repro.hardware.gpu import H100_NVL
from repro.llm.config import LLAMA2_7B, LLAMA2_13B, LLAMA2_70B
from repro.llm.datatypes import BFLOAT16, INT8
from repro.tee.backends import BAREMETAL, CGPU


class TestWorkload:
    def test_sequences_fold_beams(self):
        workload = Workload(LLAMA2_7B, BFLOAT16, batch_size=6, beam_size=4)
        assert workload.sequences == 24

    def test_user_tokens_ignore_beams(self):
        workload = Workload(LLAMA2_7B, BFLOAT16, batch_size=6,
                            output_tokens=128, beam_size=4)
        assert workload.user_tokens == 6 * 128

    def test_context_window_enforced(self):
        with pytest.raises(ValueError, match="positions"):
            Workload(LLAMA2_7B, BFLOAT16, input_tokens=4000, output_tokens=128)

    def test_with_changes_field(self):
        workload = Workload(LLAMA2_7B, BFLOAT16)
        assert workload.with_(batch_size=8).batch_size == 8
        assert workload.batch_size == 1

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            Workload(LLAMA2_7B, BFLOAT16, batch_size=0)

    def test_nonfinite_dimensions_rejected(self):
        # Regression: NaN made every comparison in the old min() guard
        # False, so nan dimensions validated clean.
        for bad in (float("nan"), float("inf"), -float("inf")):
            for dim in ("batch_size", "input_tokens", "output_tokens",
                        "beam_size"):
                with pytest.raises(ValueError, match="finite"):
                    Workload(LLAMA2_7B, BFLOAT16, **{dim: bad})

    def test_non_integer_dimensions_rejected(self):
        # Regression: fractional batches and prompts simulated without
        # error, True passed as 1, and 8.0 output tokens failed late in
        # numpy slicing.
        for bad in (2.5, 8.0, True):
            for dim in ("batch_size", "input_tokens", "output_tokens",
                        "beam_size"):
                with pytest.raises(ValueError, match="integer"):
                    Workload(LLAMA2_7B, BFLOAT16, **{dim: bad})

    def test_numpy_integer_dimensions_accepted(self):
        workload = Workload(LLAMA2_7B, BFLOAT16, batch_size=np.int64(2),
                            input_tokens=np.int32(64),
                            output_tokens=np.int64(8))
        assert workload.user_tokens == 16


class TestCpuPlacement:
    def test_cores_default_all(self):
        assert CpuPlacement(EMR2, sockets_used=2).cores == 120

    def test_cores_subset(self):
        placement = CpuPlacement(EMR2, sockets_used=1,
                                 cores_per_socket_used=16)
        assert placement.cores == 16
        assert placement.cores_per_socket == 16

    def test_socket_bounds(self):
        with pytest.raises(ValueError):
            CpuPlacement(EMR1, sockets_used=3)

    def test_core_bounds(self):
        with pytest.raises(ValueError):
            CpuPlacement(EMR1, cores_per_socket_used=64)

    @pytest.mark.parametrize("field, bad", [
        ("cores_per_socket_used", 8.5),
        ("cores_per_socket_used", 8.0),
        ("cores_per_socket_used", True),
        ("sockets_used", 1.5),
        ("sockets_used", 1.0),
        ("sockets_used", True),
        ("snc_clusters", 2.5),
        ("snc_clusters", True),
        ("snc_clusters", float("nan")),
    ])
    def test_non_integer_counts_rejected(self, field, bad):
        # Regression: 8.5 cores simulated 8.5 cores, sockets_used=1.5
        # gave 90.0 cores and True passed as one socket.
        with pytest.raises(ValueError, match="integer"):
            CpuPlacement(EMR2, **{field: bad})

    def test_numpy_integer_counts_accepted(self):
        placement = CpuPlacement(EMR2, sockets_used=np.int64(2),
                                 cores_per_socket_used=np.int32(16),
                                 snc_clusters=np.int64(2))
        assert placement.cores == 32


class TestDeployment:
    def test_device_mismatch_backend(self):
        with pytest.raises(ValueError, match="backend"):
            Deployment(CpuPlacement(EMR2), CGPU, IPEX)

    def test_device_mismatch_framework(self):
        with pytest.raises(ValueError, match="framework"):
            Deployment(CpuPlacement(EMR2), BAREMETAL, VLLM_GPU)

    def test_dtype_unsupported_by_framework(self):
        deployment = Deployment(CpuPlacement(EMR2), BAREMETAL, VLLM_CPU)
        with pytest.raises(ValueError, match="int8"):
            deployment.validate_workload(Workload(LLAMA2_7B, INT8))

    def test_70b_does_not_fit_h100(self):
        """§V-D4: a single H100 fits ~30B, not 70B."""
        deployment = Deployment(GpuPlacement(H100_NVL), CGPU, VLLM_GPU)
        with pytest.raises(ValueError, match="does not fit"):
            deployment.validate_workload(Workload(LLAMA2_70B, BFLOAT16))

    def test_13b_fits_h100(self):
        deployment = Deployment(GpuPlacement(H100_NVL), CGPU, VLLM_GPU)
        deployment.validate_workload(Workload(LLAMA2_13B, BFLOAT16))

    def test_70b_needs_two_sockets_worth_of_memory(self):
        """Fig. 5's premise: 70B bf16 exceeds one socket under load."""
        bytes_needed = weight_footprint(Workload(LLAMA2_70B, BFLOAT16), IPEX)
        assert bytes_needed > 0.5 * EMR1.mem_per_socket_bytes


class TestWeightFootprint:
    def test_dtype_width(self):
        workload = Workload(LLAMA2_7B, INT8)
        assert weight_footprint(workload, IPEX) == LLAMA2_7B.num_parameters

    def test_llamacpp_override(self):
        """llama.cpp's mixed quantization shrinks the footprint."""
        workload = Workload(LLAMA2_7B, BFLOAT16)
        assert weight_footprint(workload, LLAMACPP) < weight_footprint(
            workload, IPEX) / 2
