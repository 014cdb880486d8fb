from gmtkit.utils import thread_count


def test_thread_count_reads_gmt_threads(monkeypatch, capsys):
    monkeypatch.setenv("GMT_THREADS", "3")
    assert thread_count() == 3
    monkeypatch.setenv("GMT_THREADS", "0")
    assert thread_count() == 1
    assert capsys.readouterr().err == ""


def test_thread_count_reports_a_value_that_is_not_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("GMT_THREADS", "abc")
    assert thread_count() == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "GMT_THREADS='abc' is not an integer" in err
