//! The renderers' observability counters. This test has a binary of its
//! own because it switches the process-global observability on: a render
//! on any concurrent test thread would bump the counters it checks.

use isis_views::render::{ascii, svg};
use isis_views::{Element, FrameStyle, Rect, Scene};

#[test]
fn rendering_records_observability_counters() {
    let obs = isis_obs::global();
    obs.set_enabled(true);
    let renders = obs.registry().counter("views.renders");
    let elements = obs.registry().counter("views.render.elements");
    let (r0, e0) = (renders.get(), elements.get());
    let mut s = Scene::new("obs");
    s.push(Element::Frame {
        rect: Rect::new(0, 0, 8, 3),
        title: None,
        style: FrameStyle::Window,
    });
    let _ = ascii::render(&s);
    let _ = svg::render(&s);
    assert_eq!(renders.get(), r0 + 2);
    assert_eq!(elements.get(), e0 + 2);
    obs.set_enabled(false);
}
