"""Shared fixtures: small, fast workloads and standard deployments."""

import signal

import pytest

from repro.core.experiment import cpu_deployment, gpu_deployment
from repro.engine.placement import Workload
from repro.llm.config import LLAMA2_7B, tiny_llama
from repro.llm.datatypes import BFLOAT16


@pytest.fixture
def small_workload():
    """A Llama2-7B workload small enough for sub-second simulation."""
    return Workload(LLAMA2_7B, BFLOAT16, batch_size=1, input_tokens=128,
                    output_tokens=16)


@pytest.fixture
def tiny_model():
    """A 2-layer toy architecture for functional (numpy) tests."""
    return tiny_llama()


@pytest.fixture
def baremetal_1s():
    return cpu_deployment("baremetal", sockets_used=1)


@pytest.fixture
def tdx_1s():
    return cpu_deployment("tdx", sockets_used=1)


@pytest.fixture
def sgx_1s():
    return cpu_deployment("sgx", sockets_used=1)


@pytest.fixture
def vm_1s():
    return cpu_deployment("vm", sockets_used=1)


@pytest.fixture
def gpu_raw():
    return gpu_deployment(confidential=False)


@pytest.fixture
def cgpu():
    return gpu_deployment(confidential=True)


@pytest.fixture
def deadline():
    """Fail a test with ``TimeoutError`` instead of hanging past 5 s."""
    def expire(signum, frame):
        raise TimeoutError("test body did not return within 5 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
