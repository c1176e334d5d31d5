//! Criterion benchmarks for the tree-matching algorithms (paper §4.1.3's
//! cost argument, micro-benchmark form of experiment E4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cookiepicker_core::DomTreeView;
use cp_cookies::SimTime;
use cp_treediff::{bottom_up_matching, n_tree_sim, rstm, selkow_distance, stm, zhang_shasha_distance};
use cp_webworld::render::{render_page, RenderInput};
use cp_webworld::{Category, CookieSpec, SiteSpec};
use cp_runtime::rng::{SeedableRng, StdRng};

fn page_pair(richness: usize) -> (cp_html::Document, cp_html::Document) {
    let mut spec = SiteSpec::new("bench.example", Category::Reference, 7)
        .with_cookie(CookieSpec::tracker("trk"));
    spec.richness = richness;
    let render = |noise_seed: u64| {
        let input = RenderInput {
            spec: &spec,
            path: "/page/1",
            cookies: &[],
            now: SimTime::from_secs(noise_seed),
        };
        cp_html::parse_document(&render_page(&input, &mut StdRng::seed_from_u64(noise_seed)))
    };
    (render(1), render(2))
}

fn bench_matchers(c: &mut Criterion) {
    let mut group = c.benchmark_group("treediff");
    for richness in [3usize, 20, 80] {
        let (a, b) = page_pair(richness);
        let va = DomTreeView::from_body(&a);
        let vb = DomTreeView::from_body(&b);
        group.bench_with_input(BenchmarkId::new("stm_full", richness), &richness, |bench, _| {
            bench.iter(|| stm(&va, &vb))
        });
        group.bench_with_input(BenchmarkId::new("rstm_l5", richness), &richness, |bench, _| {
            bench.iter(|| rstm(&va, &vb, 5))
        });
        group.bench_with_input(BenchmarkId::new("n_tree_sim_l5", richness), &richness, |bench, _| {
            bench.iter(|| n_tree_sim(&va, &vb, 5))
        });
        group.bench_with_input(BenchmarkId::new("bottom_up", richness), &richness, |bench, _| {
            bench.iter(|| bottom_up_matching(&va, &vb))
        });
        if richness <= 20 {
            group.bench_with_input(BenchmarkId::new("selkow", richness), &richness, |bench, _| {
                bench.iter(|| selkow_distance(&va, &vb))
            });
        }
        if richness <= 3 {
            group.bench_with_input(
                BenchmarkId::new("zhang_shasha", richness),
                &richness,
                |bench, _| bench.iter(|| zhang_shasha_distance(&va, &vb)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_matchers);
criterion_main!(benches);
